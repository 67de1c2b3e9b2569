(** Phase I — marking.

    Depth-first traversal from the roots setting the mark bit of every
    reachable object.  Cost per visited object is one dependent memory
    access (graph walks are cache-hostile) plus one scan per reference
    slot; the phase time is the work-stealing makespan across the GC
    threads.

    Host parallelism (DESIGN.md §13): the flag-clear sweep fans out over
    [threads] shards on the global [Svagc_par.Domain_pool] — each shard
    clears a disjoint slice of distinct object records, nothing to
    merge.  The traversal itself stays on the calling domain: discovery
    order defines the cost-vector order the simulated schedule replays,
    so parallelizing it would change published makespans. *)

open Svagc_heap

val run : Heap.t -> threads:int -> float
(** Marks reachable objects in place and returns the phase time in ns.
    All mark bits are cleared first. *)
