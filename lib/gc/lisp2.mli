(** The four-phase LISP2 mark-compact full GC (§II of the paper), with
    parallelized phases and a pluggable compaction mover.

    Every full collector in this repository is an instance of this engine:
    - baseline "Epsilon + parallel LISP2 (memmove)": {!Compact.memmove_mover}
    - SVAGC: the SwapVA mover from [Svagc_core.Move_object]
    - ParallelGC / Shenandoah models: see [Parallel_gc] / [Shenandoah].

    The copying collectors ([Generational], [Semispace]) move through
    {!Evacuate} instead. *)

open Svagc_heap

type config = {
  label : string;
  threads : int;  (** GC threads for mark/forward/adjust *)
  compact_threads : int;  (** copy-phase threads (Shenandoah models 1) *)
  mover : Compact.mover;
}

val config :
  ?label:string ->
  ?threads:int ->
  ?compact_threads:int ->
  ?mover:Compact.mover ->
  unit ->
  config
(** Defaults: 4 threads, same compact threads, memmove mover.
    @raise Invalid_argument unless both thread counts are positive. *)

val collect : config -> Heap.t -> Gc_stats.cycle
(** One full cycle: mark, forward, adjust, compact, all stop-the-world
    ([concurrent_ns] is 0). *)

val collector : config -> Heap.t -> Gc_intf.t
