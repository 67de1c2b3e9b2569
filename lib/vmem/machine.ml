type core = {
  core_id : int;
  tlb : Tlb.t;
}

(* The machine's memory-pressure plane, as a record of closures: the state
   (swap device, LRU lists, watermarks) lives in svagc_reclaim, which sits
   ABOVE this library, so — like the fault injector and the shadow-oracle
   hooks — the wiring is inverted.  [None] (the default) means no memory
   limit: every call site guards with one ref read and behaves exactly as
   before, keeping unlimited runs bit-identical. *)
type reclaim_iface = {
  ri_page_mapped : pt:Page_table.t -> asid:int -> va:int -> unit;
  ri_page_unmapped : asid:int -> va:int -> pte:Pte.value -> unit;
  ri_page_touched : asid:int -> va:int -> unit;
  ri_fault_in : pt:Page_table.t -> asid:int -> va:int -> unit;
  ri_adopt : pt:Page_table.t -> asid:int -> unit;
  ri_slot_bytes : slot:int -> bytes option;
  ri_slot_allocated : slot:int -> bool;
  ri_slots_in_use : unit -> int;
  ri_drain_ns : unit -> float;
  ri_cgroup_stats : unit -> (int * int * int * int) list;
  ri_tier_stats : unit -> int * int;
  ri_lru_audit : unit -> string list;
}

(* Machine-owned scratch for the flat SwapVA engine: two reusable run
   buffers (src/dst slice descriptors) and a direct-mapped memo for the
   bulk steady-state charge.  The memo is keyed by the walker's exact
   accumulated cost (float bits), the page count and the cached flag;
   a hit replays the identical float result, so memoization cannot
   perturb bit-identity — it only skips re-running a pure, deterministic
   serial float chain.  [hs_memo_enc] holds [(pages lsl 1) lor cached]
   (never 0, so 0 marks an empty slot).

   There is one scratch per machine and only the main domain may use
   it: SwapVA never runs in a pool task, and [hot_scratch] refuses any
   other domain rather than let two streams share a half-built run
   list. *)
type hot_scratch = {
  hs_src_runs : Page_table.run_buf;
  hs_dst_runs : Page_table.run_buf;
  hs_memo_acc : float array;
  hs_memo_enc : int array;
  hs_memo_out : float array;
}

let memo_slots = 8192

type t = {
  cost : Cost_model.t;
  ncores : int;
  cores : core array;
  phys : Phys_mem.t;
  perf : Perf.t;
  llc : Cache_sim.t;
  mutable copy_streams : int;
  mutable next_asid : int;
  mutable fault : Svagc_fault.Injector.t option;
  mutable reclaim : reclaim_iface option;
  mutable scratch : hot_scratch option;
}

(* Observation hooks for the shadow oracle (svagc_check).  The vmem layer
   cannot depend on the checker, so the wiring is inverted: the checker
   installs callbacks here while check mode is enabled.  [None] (the
   default) costs one ref read on the hot paths. *)
let created_hook : (t -> unit) option ref = ref None
let shootdown_hook : (t -> asid:int -> unit) option ref = ref None

let notify_shootdown t ~asid =
  match !shootdown_hook with None -> () | Some f -> f t ~asid

let create ?ncores ?(phys_mib = 512) (cost : Cost_model.t) =
  let ncores = match ncores with Some n -> n | None -> cost.ncores in
  if ncores <= 0 then invalid_arg "Machine.create: ncores must be positive";
  let frames = phys_mib * 1024 * 1024 / Addr.page_size in
  let t =
    {
      cost;
      ncores;
      cores = Array.init ncores (fun core_id -> { core_id; tlb = Tlb.create () });
      phys = Phys_mem.create ~frames;
      perf = Perf.create ();
      llc = Cache_sim.create ();
      copy_streams = 1;
      next_asid = 1;
      fault = None;
      reclaim = None;
      scratch = None;
    }
  in
  (match !created_hook with None -> () | Some f -> f t);
  t

let core t i =
  if i < 0 || i >= t.ncores then invalid_arg "Machine.core: no such core";
  t.cores.(i)

let hot_scratch t =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Machine.hot_scratch: SwapVA scratch is main-domain only";
  match t.scratch with
  | Some s -> s
  | None ->
    let s =
      {
        hs_src_runs = Page_table.run_buf_create ();
        hs_dst_runs = Page_table.run_buf_create ();
        hs_memo_acc = Array.make memo_slots 0.0;
        hs_memo_enc = Array.make memo_slots 0;
        hs_memo_out = Array.make memo_slots 0.0;
      }
    in
    t.scratch <- Some s;
    s

let fresh_asid t =
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  asid

let effective_copy_bw t ~bytes_len =
  let bw = Cost_model.memmove_bw t.cost ~bytes_len in
  Cost_model.contended_bw t.cost ~streams:t.copy_streams ~bw

module Tracer = Svagc_trace.Tracer

(* One instant per interrupted core, on that core's track, so a trace
   shows exactly which cores a shootdown touched (Eq. 2's event count). *)
let trace_ipis t ~from_core =
  if Tracer.tracing () then
    for c = 0 to t.ncores - 1 do
      if c <> from_core then
        Tracer.instant ~cat:"kernel" ~tid:c
          ~args:[ ("from_core", Svagc_trace.Event.Int from_core) ]
          "ipi"
    done

(* A lost IPI is handled entirely inside the delivery protocol: the
   initiator notices the missing ack and resends once, so callers only
   ever see the extra latency, never an error (EIPI_lost stays
   kernel-internal by design). *)
let ipi_delivery_penalty_ns t ~from_core =
  match t.fault with
  | None -> 0.0
  | Some inj ->
    if Svagc_fault.Injector.fire inj ~site:Svagc_fault.Fault_spec.Ipi_deliver ~va:0
    then begin
      let victim = (from_core + 1) mod t.ncores in
      Perf.bump t.perf Ipis_lost 1;
      Perf.bump t.perf Ipis_sent 1;
      if Tracer.tracing () then
        Tracer.instant ~cat:"kernel" ~tid:victim
          ~args:[ ("from_core", Svagc_trace.Event.Int from_core) ]
          "ipi.lost";
      t.cost.ipi_ns +. t.cost.ipi_ack_ns
    end
    else 0.0

let ipi_broadcast_cost ?(scale = 1.0) t ~from_core =
  (* Sends go out in parallel: the initiator pays one delivery latency
     plus an ack-gathering cost per remote core, not a serial round trip
     per core.  [scale] discounts only the broadcast term (the kernel's
     process-targeted flush acks at 60% of a full round trip); a
     fault-injected lost IPI is always resent at full price. *)
  let remote = t.ncores - 1 in
  Perf.bump t.perf Ipis_sent remote;
  Perf.bump t.perf Shootdown_broadcasts 1;
  trace_ipis t ~from_core;
  if remote = 0 then 0.0
  else
    scale
    *. (t.cost.ipi_ns +. (float_of_int (remote - 1) *. t.cost.ipi_ack_ns))
    +. ipi_delivery_penalty_ns t ~from_core

let flush_tlb_all_cores t ~asid ~from_core =
  Array.iter (fun c -> Tlb.flush_asid c.tlb ~asid) t.cores;
  (* One local-flush event per core actually flushed (every core walks its
     own TLB when the IPI lands) plus one machine-wide event — the Eq. 2
     bookkeeping the shadow oracle cross-checks. *)
  Perf.bump t.perf Tlb_flush_local t.ncores;
  Perf.bump t.perf Tlb_flush_all 1;
  let ns = t.cost.tlb_flush_local_ns +. ipi_broadcast_cost t ~from_core in
  notify_shootdown t ~asid;
  ns
