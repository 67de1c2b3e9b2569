open Svagc_vmem
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Heap = Svagc_heap.Heap
module Obj_model = Svagc_heap.Obj_model
module Histogram = Svagc_util.Histogram
module Rng = Svagc_util.Rng
module Tracer = Svagc_trace.Tracer
module Process = Svagc_kernel.Process
module Swap_tier = Svagc_reclaim.Swap_tier
module Cgroup = Svagc_reclaim.Cgroup
module Reclaim = Svagc_reclaim.Reclaim

type config = {
  tenants : int;  (* main cohort, all sized to fit the overcommit budget *)
  surge : int;  (* late arrivals that exercise the queue and rejection *)
  overcommit : float;  (* committed : pool ratio the node is run at *)
  steps : int;  (* mutator steps per tenant *)
  seed : int;
  queue_limit : int;  (* admission wait-queue capacity *)
}

let default =
  {
    tenants = 1000;
    surge = 50;
    overcommit = 2.0;
    steps = 10;
    seed = 42;
    queue_limit = 24;
  }

let cgroup_soft = 0.5  (* soft limit as a fraction of the tenant's heap *)
let cgroup_hard = 1.0  (* hard limit as a fraction of the tenant's heap *)
let near_frac = 0.5  (* near-tier slots as a fraction of the pool *)

(* Heterogeneous tenant classes, assigned round-robin by id.  Object
   sizes scale with the heap so every class keeps a low live fraction and
   reaches Heap_full — and therefore GC — every few steps.  The large
   class allocates humongous buffers at or above the 10-page swapping
   threshold (Algorithm 3 page-aligns them and gives them their pages
   exclusively), so its compactions move whole pages: SwapVA exchanges
   the PTEs — swapped ones as slot handles — while memmove streams the
   bytes, demand-faulting every cold page first. *)
type klass = {
  k_name : string;
  k_heap_pages : int;
  k_entries : int;  (* live-object window *)
  k_min_bytes : int;  (* payload bounds, drawn uniformly *)
  k_span_bytes : int;
}

let classes =
  [|
    { k_name = "small"; k_heap_pages = 16; k_entries = 24; k_min_bytes = 64; k_span_bytes = 448 };
    { k_name = "medium"; k_heap_pages = 32; k_entries = 16; k_min_bytes = 1024; k_span_bytes = 3072 };
    { k_name = "large"; k_heap_pages = 128; k_entries = 4; k_min_bytes = 40960; k_span_bytes = 16384 };
  |]

type tenant = {
  id : int;
  klass : klass;
  heap_bytes : int;
  soft : int;  (* frames *)
  hard : int;  (* frames; the tenant's admission commitment *)
  allocs_per_step : int;
}

let make_tenant id =
  let klass = classes.(id mod Array.length classes) in
  let heap_pages = klass.k_heap_pages in
  let heap_bytes = heap_pages * Addr.page_size in
  let frac f = int_of_float (ceil (f *. float_of_int heap_pages)) in
  let hard = Stdlib.max 2 (frac cgroup_hard) in
  let soft = Stdlib.max 1 (Stdlib.min hard (frac cgroup_soft)) in
  let mean_obj =
    Obj_model.header_bytes + klass.k_min_bytes + (klass.k_span_bytes / 2)
  in
  (* Allocate about a third of the heap per step: a GC every ~3 steps. *)
  let allocs_per_step = Stdlib.max 4 (heap_bytes / 3 / mean_obj) in
  { id; klass; heap_bytes; soft; hard; allocs_per_step }

type tenant_stats = {
  t_id : int;
  t_class : string;
  t_heap_pages : int;
  mutable t_decision : Admission.decision;
  mutable t_wave : int;  (* -1 = never ran *)
  t_gc_pauses : Histogram.t;
  t_stalls : Histogram.t;
  mutable t_gc_ns : float;
  mutable t_app_ns : float;
  mutable t_gc_count : int;
}

type result = {
  label : string;
  config : config;
  pool_frames : int;
  committed_frames : int;  (* peak: the main cohort's total commitment *)
  near_slots : int;
  waves : int;
  admitted : int;
  queued : int;
  rejected : int;
  stats : tenant_stats array;  (* by tenant id, rejected ones included *)
  pauses : Histogram.t;  (* all GC pauses across all tenants *)
  stalls : Histogram.t;  (* all per-step allocation stalls *)
  max_tenant_p99_pause : float;
  total_ns : float;  (* sum over waves of the slowest tenant's clock *)
  perf : Perf.t;
  tier : int * int;  (* final (near_in_use, far_in_use) *)
}

let think_ns = 2_000.0

(* One tenant's mutator: an LRU-cache-style loop over a fixed window of
   live roots; every insert retires one root, so most allocation is
   garbage and the heap cycles through Heap_full -> GC.  The allocation
   stall is the app-clock delta beyond the charges the step itself makes
   (think time + nominal alloc cost): exactly the reclaim drains, demand
   faults and post-GC mutator penalties billed into [Jvm.alloc]. *)
let make_stepper tenant jvm rng stats =
  let heap = Jvm.heap jvm in
  let window = Array.make tenant.klass.k_entries None in
  fun () ->
    let app0 = Jvm.app_ns jvm in
    for _ = 1 to tenant.allocs_per_step do
      let k = Rng.int rng tenant.klass.k_entries in
      (match window.(k) with
      | Some obj -> Heap.remove_root heap obj
      | None -> ());
      let size =
        Obj_model.header_bytes + tenant.klass.k_min_bytes
        + Rng.int rng tenant.klass.k_span_bytes
      in
      let obj = Jvm.alloc jvm ~size ~n_refs:0 ~cls:0 in
      Heap.add_root heap obj;
      window.(k) <- Some obj
    done;
    Jvm.charge_app_ns jvm think_ns;
    let nominal =
      think_ns +. (float_of_int tenant.allocs_per_step *. Jvm.alloc_cost_ns)
    in
    let stall = Jvm.app_ns jvm -. app0 -. nominal in
    Histogram.add stats.t_stalls (Float.max 0.0 stall)

(* Float bounds are written as the range that is accepted, so NaN fails
   them too. *)
let validate config =
  if config.tenants < 1 then invalid_arg "Fleet: tenants must be >= 1";
  if config.surge < 0 then invalid_arg "Fleet: surge must be >= 0";
  if config.steps < 1 then invalid_arg "Fleet: steps must be >= 1";
  if not (config.overcommit >= 1.0) then
    invalid_arg "Fleet: overcommit must be >= 1";
  if config.queue_limit < 0 then invalid_arg "Fleet: queue_limit must be >= 0"

(* The pool is sized so the main cohort's total hard-limit commitment is
   exactly [overcommit] times the resident frames available — "1000
   tenants under 2x overcommit" means everyone runs, with half their
   hard-limit working sets swapped out at any instant.  The surge
   tenants arrive after the budget is spent: they queue (up to
   [queue_limit]) and run as a later wave, or are rejected. *)
let run ~collector_of ?(label = "fleet") config =
  validate config;
  let total = config.tenants + config.surge in
  let tenants = Array.init total make_tenant in
  let committed_main =
    Array.fold_left
      (fun acc t -> if t.id < config.tenants then acc + t.hard else acc)
      0 tenants
  in
  let pool_frames =
    Stdlib.max 64
      (int_of_float
         (ceil (float_of_int committed_main /. config.overcommit)))
  in
  let phys_mib =
    Stdlib.max 256 ((pool_frames * Addr.page_size / (1024 * 1024) * 2) + 64)
  in
  let machine = Machine.create ~phys_mib Cost_model.xeon_6130 in
  let near_slots =
    Stdlib.max 1 (int_of_float (near_frac *. float_of_int pool_frames))
  in
  let tier = Swap_tier.create machine ~near_slots () in
  let cgroup = Cgroup.create () in
  (* One shared frame pool for every wave, armed before any tenant maps a
     page so each heap page enters the LRU lists as it is mapped. *)
  ignore
    (Reclaim.attach machine ~limit_frames:pool_frames ~dev:tier ~cgroup ());
  let admission =
    Admission.create machine ~capacity_frames:pool_frames
      ~overcommit:config.overcommit ~queue_limit:config.queue_limit ()
  in
  let stats =
    Array.map
      (fun t ->
        {
          t_id = t.id;
          t_class = t.klass.k_name;
          t_heap_pages = t.klass.k_heap_pages;
          t_decision = Admission.Rejected;
          t_wave = -1;
          (* Pre-sized: a GC roughly every 3 steps plus the forced one,
             and exactly one stall sample per step.  Keeps 10k tenants'
             worth of Vec backing from doubling-churn and 2x slack. *)
          t_gc_pauses = Histogram.create ~capacity:((config.steps / 2) + 2) ();
          t_stalls = Histogram.create ~capacity:config.steps ();
          t_gc_ns = 0.0;
          t_app_ns = 0.0;
          t_gc_count = 0;
        })
      tenants
  in
  (* Arrival: every tenant asks once, in id order. *)
  let first_wave = ref [] in
  Array.iter
    (fun t ->
      let d = Admission.request admission ~tenant:t.id ~frames:t.hard in
      stats.(t.id).t_decision <- d;
      if d = Admission.Admitted then first_wave := t.id :: !first_wave)
    tenants;
  let queued_total = ref 0 in
  Array.iter
    (fun s -> if s.t_decision = Admission.Queued then incr queued_total)
    stats;
  let total_ns = ref 0.0 in
  let run_wave wave_no ids =
    let ids = Array.of_list ids in
    let mj =
      Multi_jvm.create machine ~instances:(Array.length ids)
        ~spawn:(fun ~index machine ->
          let t = tenants.(ids.(index)) in
          Jvm.create machine
            ~name:(Printf.sprintf "tenant-%d" t.id)
            ~heap_bytes:t.heap_bytes ~collector_of ())
    in
    let jvms = Multi_jvm.jvms mj in
    Array.iteri
      (fun index jvm ->
        let t = tenants.(ids.(index)) in
        (* One trace track per tenant, keyed by its fleet-wide id. *)
        Jvm.set_trace_pid jvm t.id;
        if Tracer.tracing () then
          Tracer.name_process ~pid:t.id
            (Printf.sprintf "tenant-%d (%s)" t.id t.klass.k_name);
        let asid = Address_space.asid (Process.aspace (Jvm.proc jvm)) in
        Cgroup.set_limits cgroup ~asid ~soft:t.soft ~hard:t.hard)
      jvms;
    let steppers =
      Array.mapi
        (fun index jvm ->
          let t = tenants.(ids.(index)) in
          let rng = Rng.create ~seed:(config.seed + (7919 * (t.id + 1))) in
          make_stepper t jvm rng stats.(t.id))
        jvms
    in
    (* The wave is Multi_jvm's step-major loop: at step s every tenant
       takes one mutator step, and the final step (s = steps) is each
       tenant's forced compacting collection — at peak pool pressure:
       by then the wave's whole working set is allocated and the cold
       majority of it swapped out, so this is where the compaction
       engines diverge — memmove demand-faults every swapped page (at
       far-tier latency for the demoted ones) while SwapVA exchanges
       slot handles without touching either tier. *)
    Multi_jvm.run_round_robin mj ~steps:(config.steps + 1)
      ~step:(fun ~index jvm s ->
        if s < config.steps then steppers.(index) ()
        else ignore (Jvm.run_gc jvm));
    Array.iteri
      (fun index jvm ->
        let t = tenants.(ids.(index)) in
        let s = stats.(t.id) in
        s.t_wave <- wave_no;
        List.iter
          (fun cycle ->
            Histogram.add s.t_gc_pauses (Svagc_gc.Gc_stats.pause_ns cycle))
          (Jvm.cycles jvm);
        s.t_gc_ns <- Jvm.gc_ns jvm;
        s.t_app_ns <- Jvm.app_ns jvm;
        s.t_gc_count <- Jvm.gc_count jvm)
      jvms;
    total_ns := !total_ns +. Multi_jvm.max_total_ns mj;
    Array.iter
      (fun idx -> Admission.release admission ~frames:tenants.(idx).hard)
      ids
  in
  let wave_no = ref 0 in
  let wave = ref (List.rev !first_wave) in
  while !wave <> [] do
    run_wave !wave_no !wave;
    incr wave_no;
    wave := List.map fst (Admission.take_ready admission)
  done;
  (* Fleet-wide percentiles: one O(total-samples) append pass (the old
     merge-into-fresh fold was O(tenants * total) — a 10k-tenant
     scaling wall), sorted lazily at the first quantile query. *)
  let total_pauses = ref 0 and total_stalls = ref 0 in
  Array.iter
    (fun s ->
      total_pauses := !total_pauses + Histogram.count s.t_gc_pauses;
      total_stalls := !total_stalls + Histogram.count s.t_stalls)
    stats;
  let pauses = Histogram.create ~capacity:!total_pauses () in
  let stalls = Histogram.create ~capacity:!total_stalls () in
  let max_p99 = ref 0.0 in
  Array.iter
    (fun s ->
      Histogram.merge_into ~into:pauses s.t_gc_pauses;
      Histogram.merge_into ~into:stalls s.t_stalls;
      if Histogram.count s.t_gc_pauses > 0 then
        max_p99 := Float.max !max_p99 (Histogram.p99 s.t_gc_pauses))
    stats;
  {
    label;
    config;
    pool_frames;
    committed_frames = committed_main;
    near_slots;
    waves = !wave_no;
    admitted = Admission.admitted admission;
    queued = !queued_total;
    rejected = Admission.rejected admission;
    stats;
    pauses;
    stalls;
    max_tenant_p99_pause = !max_p99;
    total_ns = !total_ns;
    perf = Perf.copy machine.Machine.perf;
    tier = Swap_tier.stats tier;
  }
