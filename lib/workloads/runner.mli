(** Drive a workload on a fresh JVM until enough full GCs have been
    observed, and report the run. *)


type result = {
  workload : string;
  collector : string;
  heap_factor : float;
  heap_bytes : int;
  steps : int;
  app_ns : float;
  gc_ns : float;
  total_ns : float;
  throughput : float;  (** steps per simulated millisecond *)
  summary : Svagc_gc.Gc_stats.summary;
  cycles : Svagc_gc.Gc_stats.cycle list;
}

val run :
  ?heap_factor:float ->
  ?steps:int ->
  ?min_gcs:int ->
  ?seed:int ->
  machine:Svagc_vmem.Machine.t ->
  collector_of:(Svagc_heap.Heap.t -> Svagc_gc.Gc_intf.t) ->
  Workload.t ->
  result
(** Defaults: heap factor 1.2 (the paper's tight configuration), at least
    [steps] = 60 iterations and [min_gcs] = 4 full collections, capped at
    3000 steps.  The collector's history and clocks are fresh per
    run; the machine's perf counters are not reset (snapshot around the
    call if you need deltas). *)

val make_jvm :
  ?heap_factor:float ->
  machine:Svagc_vmem.Machine.t ->
  collector_of:(Svagc_heap.Heap.t -> Svagc_gc.Gc_intf.t) ->
  Workload.t ->
  Svagc_core.Jvm.t
(** The JVM construction used by {!run}, exposed for the multi-JVM
    experiments. *)
