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
(** Spawns [instances] JVMs and sets the machine's contention level.
    Memory pressure is the machine's, not the co-run's: attach a reclaim
    plane ([Svagc_reclaim.Reclaim.attach]) when the machine is made,
    so every tenant's heap pages are LRU-tracked from their first
    mapping. *)

val jvms : t -> Jvm.t array

val run_round_robin : t -> steps:int -> step:(Jvm.t -> int -> unit) ->
  unit
(** Interleave [steps] iterations across the instances: step s goes to
    every JVM in turn ([step jvm s]).  Backed by the
    {!Svagc_sched.Calendar} event-driven core; the firing order is
    proven bit-identical to the nested lockstep loop (FIFO seq
    tie-breaking replays the wave interleaving exactly). *)

val run_round_robin_indexed :
  t -> steps:int -> step:(index:int -> Jvm.t -> int -> unit) -> unit
(** Same engine, passing each instance's index to [step]. *)

val max_total_ns : t -> float
(** Wall-clock of the co-run: the slowest instance. *)

val avg_gc_ns : t -> float

val avg_app_ns : t -> float

val release : t -> unit
(** Reset the machine's contention level to 1. *)
