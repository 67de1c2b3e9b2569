(** Evacuation — the move step of the copying collectors
    ({!Generational.minor}, {!Semispace.collect}), the counterpart of the
    LISP2 compact phase for two disjoint heaps.

    After the caller's mark phase, the marked objects of the from-heap are
    placed in the to-heap by {!Heap.place} (Algorithm 3, as for any
    allocation there), moved in one {!Compact.move} pass (the heaps never
    overlap, so the Algorithm 2 path cannot fire) and appended to the
    to-heap; every reference to them held by a to-heap object is
    rewritten, the from-heap's roots move over and the from-heap empties.
    Phase times are work-stealing makespans over [threads] workers. *)

open Svagc_heap

val run :
  Heap.t ->
  into:Heap.t ->
  threads:int ->
  mover:Compact.mover ->
  mark_ns:float ->
  ref_scan_ns:float ->
  Gc_stats.cycle
(** [run from ~into ...] evacuates the marked objects of [from], in
    ascending address order, to [into]'s top, and leaves the unmarked
    ones {!Obj_model.dropped}.  The rewrite charges
    [adjust_obj_ns + refs * ref_scan_ns] per object of [into].  The cycle
    is stop-the-world: [mark_ns] as given, the moves as [compact_ns], the
    rewrite as [adjust_ns], no forward or concurrent time;
    [reclaimed_bytes] is [from]'s used extent less the survivors' bytes;
    the byte counters are the machine's perf deltas.
    @raise Heap.Heap_full, before anything moves, when the survivors do
    not fit in [into]; the unmarked objects are flagged dropped all the
    same, since nothing reaches them. *)
