(** Evacuation — the move step of the copying collectors
    ({!Generational.minor}, {!Semispace.collect}), the counterpart of the
    LISP2 compact phase for disjoint from- and to-spaces.

    After the caller's mark phase, the marked objects of the from-space
    are placed in the to-space, moved in one [prologue] / [move_entries] /
    [epilogue] pass through the mover (the spaces never overlap, so the
    Algorithm 2 path cannot fire), committed, and every reference to them
    held by a to-space object is rewritten.  Phase times are work-stealing
    makespans over [threads] workers. *)

open Svagc_heap

val run :
  Heap.t ->
  into:Heap.t ->
  threads:int ->
  mover:Compact.mover ->
  mark_ns:float ->
  used_bytes:int ->
  ref_scan_ns:float ->
  place:(Obj_model.t array -> unit) ->
  commit:(Obj_model.t array -> unit) ->
  Gc_stats.cycle
(** [run from ~into ...] evacuates the marked objects of [from], in
    ascending address order.  [place] sets each one's [forward] address
    and raises, before any byte moves, when they do not fit; [commit]
    makes the moved objects part of [into].  The rewrite then charges
    [adjust_obj_ns + refs * ref_scan_ns] per object of [into].  The cycle
    is stop-the-world: [mark_ns] as given, the moves as [compact_ns], the
    rewrite as [adjust_ns], no forward or concurrent time;
    [reclaimed_bytes] is [used_bytes] (the from-space's extent) less the
    survivors' bytes; the byte counters are the machine's perf deltas. *)
