open Svagc_vmem
module Tracer = Svagc_trace.Tracer

(* A tracked resident page.  Linked into exactly one of the two LRU lists
   (or neither, transiently); keyed by virtual address so PTE swaps of two
   present entries need no fixup (the node describes "the page at this
   va", not a particular frame). *)
type whereabouts = Nowhere | On_active | On_inactive

(* Tracking-table key: (asid, vpn) packed into one immediate int, so the
   table hashes and compares an unboxed int instead of a heap-allocated
   tuple and the hot notification paths ([page_touched], [track]) allocate
   nothing per call.  40 bits of vpn (2^40 pages = 4 PiB of VA) under the
   asid leaves 22+ asid bits on 63-bit ints — both checked because a
   silent overlap would alias two pages' nodes. *)
let key_vpn_bits = 40

let page_key ~asid ~vpn =
  if vpn lsr key_vpn_bits <> 0 || asid lsr (Sys.int_size - 1 - key_vpn_bits) <> 0
  then invalid_arg "Reclaim.page_key: asid/vpn out of range";
  (asid lsl key_vpn_bits) lor vpn

type page = {
  p_asid : int;
  p_vpn : int;
  p_pt : Page_table.t;
  mutable p_ref : bool;
  mutable p_prev : page option;
  mutable p_next : page option;
  mutable p_on : whereabouts;
}

(* Doubly-linked list, head = most recently added. *)
type lru = {
  whereabouts : whereabouts;
  mutable first : page option;
  mutable last : page option;
  mutable size : int;
}

let lru_create whereabouts = { whereabouts; first = None; last = None; size = 0 }

let lru_push_front l p =
  p.p_prev <- None;
  p.p_next <- l.first;
  p.p_on <- l.whereabouts;
  (match l.first with Some q -> q.p_prev <- Some p | None -> l.last <- Some p);
  l.first <- Some p;
  l.size <- l.size + 1

let lru_pop_back l =
  match l.last with
  | None -> None
  | Some p ->
    (match p.p_prev with
    | Some q -> q.p_next <- None
    | None -> l.first <- None);
    l.last <- p.p_prev;
    p.p_prev <- None;
    p.p_next <- None;
    p.p_on <- Nowhere;
    l.size <- l.size - 1;
    Some p

let lru_remove l p =
  (match p.p_prev with
  | Some q -> q.p_next <- p.p_next
  | None -> l.first <- p.p_next);
  (match p.p_next with
  | Some q -> q.p_prev <- p.p_prev
  | None -> l.last <- p.p_prev);
  p.p_prev <- None;
  p.p_next <- None;
  p.p_on <- Nowhere;
  l.size <- l.size - 1

(* A pluggable swap device as a record of closures, mirroring the
   dependency inversion of [Machine.reclaim_iface] one level up: the
   tiered far-memory device lives in [svagc_fleet], which sits above this
   library.  [d_out_ns]/[d_in_ns] are per-attempt transfer costs —
   [d_out_ns] is queried {e before} the slot is allocated (so a tiered
   device reports the cost of the demotion the next allocation will
   trigger without mutating anything), [d_in_ns] is the cost of reading
   [slot] (a far-tier slot is slower).  The default device wraps a flat
   {!Swap_dev} with constant costs and is bit-identical to the
   pre-iface reclaimer. *)
type dev_iface = {
  d_alloc_slot : unit -> int;
  d_free_slot : int -> unit;
  d_write : slot:int -> bytes option -> unit;
  d_read : slot:int -> bytes option;
  d_peek : slot:int -> bytes option;
  d_allocated : slot:int -> bool;
  d_slots_in_use : unit -> int;
  d_out_ns : unit -> float;
  d_in_ns : slot:int -> float;
  d_tier_stats : unit -> (int * int) option;
}

(* Per-tenant resident accounting, also inverted: the cgroup state lives
   in [svagc_fleet].  [cg_charge]/[cg_uncharge] fire exactly when a page
   enters/leaves the tracking table, so a tenant's resident count is its
   tracked-node count.  [cg_prefer] marks tenants over their soft limit
   (preferred eviction victims); [cg_excess] is pages above the hard
   limit; [cg_any_over_soft] must be O(1) — kswapd consults it on every
   wake. *)
type cgroup_iface = {
  cg_charge : asid:int -> unit;
  cg_uncharge : asid:int -> unit;
  cg_excess : asid:int -> int;
  cg_prefer : asid:int -> bool;
  cg_any_over_soft : unit -> bool;
  cg_stats : unit -> (int * int * int * int) list;
}

type t = {
  machine : Machine.t;
  dev : dev_iface;
  limit : int;
  gap : int;  (* hysteresis: each wake evicts down to [limit - gap] *)
  major_fault_ns : float;
  max_io_retries : int;
  active : lru;
  inactive : lru;
  (* [page_key asid vpn] -> node, for every page on either list.  Which
     list a node is on is recovered by removal sites scanning both — see
     [drop_node]. *)
  pages : (int, page) Hashtbl.t;
  (* Secondary index: asid -> (vpn -> node), same membership as [pages].
     The post-GC [adopt_space] resync enumerates ONE tenant's nodes
     through it — iterating the flat table there was O(fleet-wide pages)
     per tenant GC, the quadratic wall of 10k-tenant runs.  Node drops
     are commutative, so enumeration order cannot change any outcome. *)
  by_asid : (int, (int, page) Hashtbl.t) Hashtbl.t;
  mutable pending_ns : float;
  mutable in_kswapd : bool;
  mutable cgroup : cgroup_iface option;
}

let flat_dev ~swap_out_ns ~swap_in_ns =
  let d = Swap_dev.create () in
  {
    d_alloc_slot = (fun () -> Swap_dev.alloc_slot d);
    d_free_slot = (fun slot -> Swap_dev.free_slot d slot);
    d_write = (fun ~slot b -> Swap_dev.write d ~slot b);
    d_read = (fun ~slot -> Swap_dev.read d ~slot);
    d_peek = (fun ~slot -> Swap_dev.peek d ~slot);
    d_allocated = (fun ~slot -> Swap_dev.allocated d ~slot);
    d_slots_in_use = (fun () -> Swap_dev.slots_in_use d);
    d_out_ns = (fun () -> swap_out_ns);
    d_in_ns = (fun ~slot:_ -> swap_in_ns);
    d_tier_stats = (fun () -> None);
  }

let create machine ~limit_frames ?swap_cost_ns ?(max_io_retries = 3) ?dev () =
  if limit_frames <= 0 then
    invalid_arg "Reclaim.create: limit_frames must be positive";
  let cost = machine.Machine.cost in
  let dev =
    match dev with
    | Some d -> d
    | None ->
      let swap_out_ns, swap_in_ns =
        match swap_cost_ns with
        | Some ns -> (ns, ns)
        | None -> (cost.Cost_model.swap_out_ns, cost.Cost_model.swap_in_ns)
      in
      flat_dev ~swap_out_ns ~swap_in_ns
  in
  {
    machine;
    dev;
    limit = limit_frames;
    gap = max 1 (limit_frames / 16);
    major_fault_ns = cost.Cost_model.major_fault_ns;
    max_io_retries;
    active = lru_create On_active;
    inactive = lru_create On_inactive;
    pages = Hashtbl.create 1024;
    by_asid = Hashtbl.create 64;
    pending_ns = 0.0;
    in_kswapd = false;
    cgroup = None;
  }

let set_cgroup t cg =
  t.cgroup <- cg;
  (* Adopt pages tracked before the cgroup plane existed (a tenant's heap
     maps during spawn, often before its limits are registered). *)
  match cg with
  | None -> ()
  | Some c -> Hashtbl.iter (fun _ p -> c.cg_charge ~asid:p.p_asid) t.pages

let limit_frames t = t.limit

let charge t ns = t.pending_ns <- t.pending_ns +. ns

let drain_ns t =
  let ns = t.pending_ns in
  t.pending_ns <- 0.0;
  ns

(* Forget a node: the (asid, vpn) key leaves the tracking table and the
   tenant's resident count drops with it. *)
let asid_nodes t asid =
  match Hashtbl.find_opt t.by_asid asid with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.add t.by_asid asid tbl;
    tbl

let untrack t p =
  Hashtbl.remove t.pages (page_key ~asid:p.p_asid ~vpn:p.p_vpn);
  (match Hashtbl.find_opt t.by_asid p.p_asid with
  | Some tbl ->
    Hashtbl.remove tbl p.p_vpn;
    if Hashtbl.length tbl = 0 then Hashtbl.remove t.by_asid p.p_asid
  | None -> ());
  match t.cgroup with
  | Some cg -> cg.cg_uncharge ~asid:p.p_asid
  | None -> ()

let drop_node t p =
  (match p.p_on with
  | On_active -> lru_remove t.active p
  | On_inactive -> lru_remove t.inactive p
  | Nowhere -> ());
  untrack t p

(* One swap-device transfer with a bounded retry against the machine's
   fault plane; each attempt (including failed ones) pays [cost_ns]. *)
let swap_io_ok t ~va ~cost_ns =
  let perf = t.machine.Machine.perf in
  let rec go attempt =
    charge t cost_ns;
    let fired =
      match t.machine.Machine.fault with
      | None -> false
      | Some inj ->
        Svagc_fault.Injector.fire inj ~site:Svagc_fault.Fault_spec.Swap_io ~va
    in
    if not fired then true
    else begin
      Perf.bump perf Swap_io_errors 1;
      if attempt + 1 < t.max_io_retries then go (attempt + 1) else false
    end
  in
  go 0

(* Evict one tracked page: copy its frame to a fresh swap slot, free the
   frame, leave a swapped PTE behind and scrub every TLB.  Returns false
   when the eviction was skipped (stale node or device EIO). *)
let swap_out t (p : page) =
  let perf = t.machine.Machine.perf in
  let va = p.p_vpn * Addr.page_size in
  let pte = Page_table.get_pte p.p_pt va in
  if not (Pte.is_present pte) then begin
    (* Stale node: the entry at this va was swapped or remapped under us
       (compaction churn); tracking catches up at the next resync. *)
    untrack t p;
    false
  end
  else if not (swap_io_ok t ~va ~cost_ns:(t.dev.d_out_ns ())) then begin
    (* Device refused every attempt: skip this page, give it another
       round through the active list. *)
    p.p_ref <- true;
    lru_push_front t.active p;
    false
  end
  else begin
    let frame = Pte.frame_exn pte in
    let slot = t.dev.d_alloc_slot () in
    t.dev.d_write ~slot (Phys_mem.frame_contents t.machine.Machine.phys frame);
    Phys_mem.free_frame t.machine.Machine.phys frame;
    Page_table.set_pte p.p_pt va (Pte.make_swapped ~slot);
    (* The frame is gone: invalidate any cached translation everywhere
       (the eviction-side half of shootdown discipline). *)
    Array.iter
      (fun c -> Tlb.flush_page c.Machine.tlb ~asid:p.p_asid ~vpn:p.p_vpn)
      t.machine.Machine.cores;
    Perf.bump perf Tlb_flush_page 1;
    charge t t.machine.Machine.cost.Cost_model.tlb_flush_page_ns;
    Perf.bump perf Pages_swapped_out 1;
    untrack t p;
    if Tracer.tracing () then
      Tracer.instant ~cat:"reclaim"
        ~args:
          [
            ("va", Svagc_trace.Event.Int va);
            ("asid", Svagc_trace.Event.Int p.p_asid);
            ("slot", Svagc_trace.Event.Int slot);
          ]
        "reclaim.swap_out";
    true
  end

(* The kswapd loop: when residency (plus any frame the caller is about to
   take, [incoming]) exceeds the limit, age the active list into the
   inactive list and evict unreferenced inactive pages until residency
   drops below the low watermark.  Second-chance: a referenced inactive
   page is rescued back to the active head instead of evicted.  The scan
   budget (every page can be aged once and considered once, plus slack)
   guarantees termination even when eviction makes no progress. *)
let balance_incoming t ~incoming =
  let perf = t.machine.Machine.perf in
  let phys = t.machine.Machine.phys in
  if (not t.in_kswapd) && Phys_mem.frames_in_use phys + incoming > t.limit
  then begin
    t.in_kswapd <- true;
    Perf.bump perf Kswapd_wakes 1;
    let tracing = Tracer.tracing () in
    if tracing then Tracer.span_begin ~cat:"reclaim" "reclaim.kswapd";
    let ns_before = t.pending_ns in
    let scans_before = Perf.get perf Reclaim_scans in
    let target = max 0 (t.limit - t.gap) in
    let budget = ref ((2 * (t.active.size + t.inactive.size)) + 64) in
    (* Soft-limit-first victim selection: while some tenant is over its
       soft limit, pages of under-soft tenants are rescued to the active
       head instead of evicted (like a second chance, without needing a
       touch), so the over-soft tenants' cold pages surface first.  The
       rotation allowance (one full pass over the lists, refreshed per
       wake) bounds the detour — once spent, or once no tenant is over
       soft, plain second-chance LRU resumes. *)
    let rotations =
      ref
        (match t.cgroup with
        | Some cg when cg.cg_any_over_soft () ->
          t.active.size + t.inactive.size
        | _ -> 0)
    in
    let spare p =
      !rotations > 0
      &&
      match t.cgroup with
      | Some cg ->
        cg.cg_any_over_soft () && not (cg.cg_prefer ~asid:p.p_asid)
      | None -> false
    in
    while
      Phys_mem.frames_in_use phys + incoming > target
      && !budget > 0
      && t.active.size + t.inactive.size > 0
    do
      decr budget;
      match lru_pop_back t.inactive with
      | Some p ->
        Perf.bump perf Reclaim_scans 1;
        if p.p_ref then begin
          (* Second chance: touched while inactive. *)
          p.p_ref <- false;
          lru_push_front t.active p
        end
        else if spare p then begin
          decr rotations;
          lru_push_front t.active p
        end
        else ignore (swap_out t p)
      | None -> (
        (* Refill: age one page from the active tail, clearing its
           referenced bit so a further touch is needed to rescue it. *)
        match lru_pop_back t.active with
        | Some p ->
          Perf.bump perf Reclaim_scans 1;
          p.p_ref <- false;
          lru_push_front t.inactive p
        | None -> budget := 0)
    done;
    if tracing then
      Tracer.span_end
        ~args:
          [
            ( "scans",
              Svagc_trace.Event.Int
                (Perf.get perf Reclaim_scans - scans_before) );
            ( "resident_frames",
              Svagc_trace.Event.Int (Phys_mem.frames_in_use phys) );
          ]
        ~dur_ns:(t.pending_ns -. ns_before) ();
    t.in_kswapd <- false
  end

let balance t = balance_incoming t ~incoming:0

let track t ~pt ~asid ~va =
  let vpn = Addr.page_number va in
  match Hashtbl.find t.pages (page_key ~asid ~vpn) with
  | p -> p.p_ref <- true
  | exception Not_found ->
    let p =
      {
        p_asid = asid;
        p_vpn = vpn;
        p_pt = pt;
        p_ref = true;
        p_prev = None;
        p_next = None;
        p_on = Nowhere;
      }
    in
    Hashtbl.add t.pages (page_key ~asid ~vpn) p;
    Hashtbl.replace (asid_nodes t asid) vpn p;
    (match t.cgroup with Some cg -> cg.cg_charge ~asid | None -> ());
    lru_push_front t.active p

(* Evict up to [excess] resident pages of one tenant, coldest first
   (inactive back-to-front, then active back-to-front), regardless of the
   global watermark — the hard-limit enforcement path.  [protect] shields
   the page the caller is in the middle of producing (a fresh mapping or
   a just-faulted page), whose eviction would break the caller's
   postcondition. *)
let shrink_asid t ~asid ~excess ~protect =
  if excess > 0 then begin
    let evicted = ref 0 in
    let collect l =
      let nodes = ref [] in
      let cur = ref l.last in
      while !cur <> None do
        match !cur with
        | Some p ->
          if p.p_asid = asid && protect <> Some p.p_vpn then
            nodes := p :: !nodes;
          cur := p.p_prev
        | None -> ()
      done;
      (* Back-to-front: coldest candidates first. *)
      List.rev !nodes
    in
    let try_evict p =
      if !evicted < excess && p.p_on <> Nowhere then begin
        (match p.p_on with
        | On_active -> lru_remove t.active p
        | On_inactive -> lru_remove t.inactive p
        | Nowhere -> ());
        if swap_out t p then incr evicted
      end
    in
    List.iter try_evict (collect t.inactive);
    if !evicted < excess then List.iter try_evict (collect t.active)
  end

let enforce t ~asid ~protect =
  match t.cgroup with
  | None -> ()
  | Some cg ->
    let excess = cg.cg_excess ~asid in
    if excess > 0 then shrink_asid t ~asid ~excess ~protect

let enforce_hard t ~asid = enforce t ~asid ~protect:None

let page_mapped t ~pt ~asid ~va =
  track t ~pt ~asid ~va;
  balance t;
  enforce t ~asid ~protect:(Some (Addr.page_number va))

let page_unmapped t ~asid ~va ~pte =
  if Pte.is_swapped pte then t.dev.d_free_slot (Pte.swap_slot_exn pte);
  match Hashtbl.find t.pages (page_key ~asid ~vpn:(Addr.page_number va)) with
  | p -> drop_node t p
  | exception Not_found -> ()

(* The hottest notification: every simulated heap access lands here.
   [Hashtbl.find] on the packed int key plus the exception match keeps the
   miss AND hit paths free of [Some]/tuple allocation. *)
let page_touched t ~asid ~va =
  match Hashtbl.find t.pages (page_key ~asid ~vpn:(Addr.page_number va)) with
  | p -> p.p_ref <- true
  | exception Not_found -> ()

let adopt_space t ~pt ~asid =
  (* Drop stale nodes first (tracked but no longer present) ... *)
  let stale = ref [] in
  (match Hashtbl.find_opt t.by_asid asid with
  | None -> ()
  | Some tbl ->
    Hashtbl.iter
      (fun _ p ->
        if
          not
            (Pte.is_present
               (Page_table.get_pte pt (p.p_vpn * Addr.page_size)))
        then stale := p :: !stale)
      tbl);
  List.iter (fun p -> drop_node t p) !stale;
  (* ... then track present pages we do not know about, in deterministic
     page-table walk order. *)
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame:_ ->
      if not (Hashtbl.mem t.pages (page_key ~asid ~vpn)) then
        track t ~pt ~asid ~va:(vpn * Addr.page_size));
  (* The resync may have revealed pages this tenant acquired since the
     last notification; settle its hard limit before handing back. *)
  enforce t ~asid ~protect:None

let fault_in t ~pt ~asid ~va =
  let pte = Page_table.get_pte pt va in
  if Pte.is_swapped pte then begin
    let perf = t.machine.Machine.perf in
    Perf.bump perf Major_faults 1;
    charge t t.major_fault_ns;
    (* Make room BEFORE taking the frame: the incoming page is not on any
       LRU list yet, so kswapd cannot choose it — which is what makes the
       caller's fault-then-retry loop terminate. *)
    balance_incoming t ~incoming:1;
    let slot = Pte.swap_slot_exn pte in
    if not (swap_io_ok t ~va ~cost_ns:(t.dev.d_in_ns ~slot)) then
      raise
        (Svagc_fault.Kernel_error.Fault (Svagc_fault.Kernel_error.EIO_swap { va }));
    let frame = Phys_mem.alloc_frame t.machine.Machine.phys in
    (match t.dev.d_read ~slot with
    | None -> () (* zero page: the fresh frame is already lazily zero *)
    | Some b ->
      Bytes.blit b 0
        (Phys_mem.frame_bytes t.machine.Machine.phys frame)
        0 (Bytes.length b));
    t.dev.d_free_slot slot;
    Page_table.set_pte pt va (Pte.make ~frame);
    Perf.bump perf Pages_swapped_in 1;
    track t ~pt ~asid ~va;
    enforce t ~asid ~protect:(Some (Addr.page_number va));
    if Tracer.tracing () then
      Tracer.instant ~cat:"reclaim"
        ~args:
          [
            ("va", Svagc_trace.Event.Int va);
            ("asid", Svagc_trace.Event.Int asid);
            ("slot", Svagc_trace.Event.Int slot);
            ("frame", Svagc_trace.Event.Int frame);
          ]
        "reclaim.fault_in"
  end

let slot_bytes t ~slot = t.dev.d_peek ~slot

let slot_allocated t ~slot = t.dev.d_allocated ~slot

let slots_in_use t = t.dev.d_slots_in_use ()

let tier_stats t = t.dev.d_tier_stats ()

let cgroup_stats t =
  match t.cgroup with None -> [] | Some cg -> cg.cg_stats ()

let tracked_pages t = t.active.size + t.inactive.size
