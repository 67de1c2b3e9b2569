(** A semispace evacuation collector — the "Concurrent (evacuation,
    relocation)" row of the paper's Table I.

    Live objects are evacuated through {!Evacuate} from the active half of
    the heap into the idle half (always-disjoint ranges), then the halves
    flip.  Most of the cycle's work runs concurrently with the
    application, ZGC/Shenandoah style; only brief init/final pauses stop
    the world.  Per Table I:

    - SwapVA applies (each above-threshold object is relocated by one
      PTE-swap call),
    - the overlapping optimization never applies (from- and to-space share
      no addresses — asserted via perf counters in the tests),
    - aggregation is not effective: relocations are issued independently
      as the concurrent collector encounters objects, so each SwapVA call
      stands alone (the collector is configured with batching off). *)

open Svagc_heap

type t

val create : Svagc_kernel.Process.t -> space_bytes:int -> unit -> t
(** Two [space_bytes] halves. *)

val heap : t -> Heap.t

exception Out_of_memory

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** Bump allocation in the active half; exhaustion triggers a cycle.
    @raise Out_of_memory when the survivors themselves overflow a half. *)

val collect : t -> mover:Compact.mover -> Gc_stats.cycle
(** Evacuate the active half into the idle one and flip.  10% of each
    phase is pause; the other 90% of the mark, evacuation and rewrite
    work is the cycle's [concurrent_ns]. *)

val cycles : t -> Gc_stats.cycle list

val active_base : t -> int
(** Start of the half currently being allocated into (for tests). *)
