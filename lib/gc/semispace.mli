(** A semispace evacuation collector — the "Concurrent (evacuation,
    relocation)" row of the paper's Table I.

    Two plain heaps of one process, at adjacent address ranges, swap
    roles: the live objects of the active one are evacuated through
    {!Evacuate} into the idle one (always-disjoint ranges), which then
    becomes the active heap.  Most of the cycle's work runs concurrently
    with the application, ZGC/Shenandoah style; only brief init/final
    pauses stop the world.  Per Table I:

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
(** Two heaps of [space_bytes] each, the first at {!Heap.default_base}
    and the second right after it. *)

val heap : t -> Heap.t
(** The active heap: where {!alloc} places objects and where roots are
    added.  A collection makes the other heap active. *)

exception Out_of_memory

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** {!Heap.alloc} in the active heap; when it is full, one cycle and one
    retry.  @raise Out_of_memory when the survivors overflow the idle heap
    or the object does not fit after the cycle. *)

val collect : t -> mover:Compact.mover -> Gc_stats.cycle
(** Evacuate the active heap into the idle one and swap their roles.
    10% of each phase is pause; the other 90% of the mark, evacuation and
    rewrite work is the cycle's [concurrent_ns].
    @raise Out_of_memory, before anything moves, when the survivors do
    not fit in the idle heap. *)

val cycles : t -> Gc_stats.cycle list
