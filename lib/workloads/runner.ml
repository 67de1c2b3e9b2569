module Jvm = Svagc_core.Jvm
module Gc_intf = Svagc_gc.Gc_intf

type result = {
  workload : string;
  collector : string;
  heap_factor : float;
  heap_bytes : int;
  steps : int;
  app_ns : float;
  gc_ns : float;
  total_ns : float;
  throughput : float;
  summary : Svagc_gc.Gc_stats.summary;
  cycles : Svagc_gc.Gc_stats.cycle list;
}

let make_jvm ?(heap_factor = 1.2) ~machine ~collector_of workload =
  let heap_bytes = Workload.heap_bytes workload ~factor:heap_factor in
  Jvm.create machine
    ~name:(workload.Workload.name ^ "-jvm")
    ~heap_bytes ~collector_of ()

(* Steps a run may take while it still owes [min_gcs] collections. *)
let step_cap = 3000

let run ?(heap_factor = 1.2) ?(steps = 60) ?(min_gcs = 4) ?(seed = 7)
    ~machine ~collector_of workload =
  let jvm = make_jvm ~heap_factor ~machine ~collector_of workload in
  (* One host major cycle while this run's heap is still empty: the
     previous run's machine is garbage by now, so the cycle frees its
     frames before this run's population raises the host heap's
     high-water mark, and of this run it marks only an empty JVM.  It
     comes after the JVM is built, so a caller that times from the first
     JVM construction counts it in the run, not in its setup. *)
  Gc.major ();
  let rng = Svagc_util.Rng.create ~seed in
  let step = workload.Workload.setup jvm rng in
  let executed = ref 0 in
  let continue () =
    !executed < steps || (Jvm.gc_count jvm < min_gcs && !executed < step_cap)
  in
  while continue () do
    step ();
    incr executed
  done;
  let cycles = Jvm.cycles jvm in
  let total_ns = Jvm.total_ns jvm in
  {
    workload = workload.Workload.name;
    collector = Gc_intf.name (Jvm.collector jvm);
    heap_factor;
    heap_bytes = Svagc_heap.Heap.limit (Jvm.heap jvm) - Svagc_heap.Heap.base (Jvm.heap jvm);
    steps = !executed;
    app_ns = Jvm.app_ns jvm;
    gc_ns = Jvm.gc_ns jvm;
    total_ns;
    throughput =
      (if total_ns > 0.0 then float_of_int !executed /. (total_ns /. 1e6) else 0.0);
    summary = Svagc_gc.Gc_stats.summarize cycles;
    cycles;
  }
