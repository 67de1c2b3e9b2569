(** Co-running JVM instances on one machine (Figs. 2 and 14).

    All instances share the machine's copy bandwidth: while [k] instances
    run, every byte-copy (GC compaction or application traffic) sees
    [machine_copy_bw / k].  SwapVA compaction needs almost no bandwidth, so
    SVAGC degrades far more slowly than byte-copy collectors — that
    divergence is the paper's scalability result. *)

open Svagc_vmem

type t

val create :
  Machine.t ->
  instances:int ->
  spawn:(index:int -> Machine.t -> Jvm.t) ->
  t
(** Spawns [instances] JVMs, then sets each one's process to
    [instances] co-runners ({!Svagc_kernel.Process.set_co_runners}), so
    every byte copy it makes from then on takes its share of the
    machine's bandwidth.
    Memory pressure is the machine's, not the co-run's: attach a reclaim
    plane ([Svagc_reclaim.Reclaim.attach]) when the machine is made,
    so every tenant's heap pages are LRU-tracked from their first
    mapping. *)

val jvms : t -> Jvm.t array

val run_round_robin :
  t -> steps:int -> step:(index:int -> Jvm.t -> int -> unit) -> unit
(** Interleave [steps] iterations across the instances, step-major:
    [for s = 0 to steps - 1 do for i = 0 to n - 1 do step ~index:i
    jvm_i s done done].  Bumps the machine's [Sched_*] counters: one
    [Sched_dispatched] per step, and one [Sched_scheduled] per instance
    entry and per step that has a successor. *)

val max_total_ns : t -> float
(** Wall-clock of the co-run: the slowest instance. *)

val avg_gc_ns : t -> float

val avg_app_ns : t -> float
