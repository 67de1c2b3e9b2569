(** Phase I — marking.

    Depth-first traversal from the roots setting the mark bit of every
    reachable object.  Cost per visited object is one dependent memory
    access (graph walks are cache-hostile) plus one scan per reference
    slot; the phase time is the work-stealing makespan across the GC
    threads.

    The whole phase runs on the calling domain (DESIGN.md §13): the
    flag clear is a plain loop, and discovery order defines the
    cost-vector order the simulated schedule replays. *)

open Svagc_heap

val run : Heap.t -> threads:int -> float
(** Marks reachable objects in place and returns the phase time in ns.
    All mark bits are cleared first. *)
