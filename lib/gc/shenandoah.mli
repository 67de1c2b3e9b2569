(** The Shenandoah-style baseline.

    Modeled by the pause structure the paper measures for its full
    collections (§V.A).  OpenJDK Shenandoah degenerates to a fully
    stop-the-world cycle when it must run a *full* GC — and the paper's
    comparison is full-GC latency — so nothing is concurrent here; what
    distinguishes the model is that the copy phase "does not utilize the
    work-stealing mechanism and parallelism": it runs on a single thread,
    which is why its full-GC pauses on large-object heaps are the worst of
    the three collectors.  Concurrent work is modeled by [Semispace]. *)

open Svagc_heap

val collector : ?threads:int -> Heap.t -> Gc_intf.t
(** Defaults: 4 marking threads; single-threaded compaction. *)
