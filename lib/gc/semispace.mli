(** A semispace evacuation collector — the "Concurrent (evacuation,
    relocation)" row of the paper's Table I.

    Live objects are evacuated from the active half of the heap into the
    idle half (always-disjoint ranges), then the halves flip.  Most of the
    cycle's work runs concurrently with the application, ZGC/Shenandoah
    style; only brief init/final pauses stop the world.  Per Table I:

    - SwapVA applies (each above-threshold object is relocated by one
      PTE-swap call),
    - the overlapping optimization never applies (from- and to-space share
      no addresses — asserted via perf counters in the tests),
    - aggregation is not effective: relocations are issued independently
      as the concurrent collector encounters objects, so each SwapVA call
      stands alone (the collector is configured with batching off). *)

open Svagc_heap

type t

type cycle_stats = {
  pause_ns : float;  (** init + final stop-the-world slices *)
  concurrent_ns : float;  (** work overlapped with the application *)
  evacuated_objects : int;
  swapped_objects : int;
  reclaimed_bytes : int;
}

val create :
  Svagc_kernel.Process.t ->
  ?threshold_pages:int ->
  ?threads:int ->
  space_bytes:int ->
  unit ->
  t
(** Two [space_bytes] halves.  90% of the mark and evacuation work is
    charged off-pause. *)

val heap : t -> Heap.t

exception Out_of_memory

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** Bump allocation in the active half; exhaustion triggers a cycle.
    @raise Out_of_memory when the survivors themselves overflow a half. *)

val collect : t -> mover:Compact.mover -> cycle_stats
(** Evacuate the active half into the idle one and flip. *)

val cycles : t -> cycle_stats list

val active_base : t -> int
(** Start of the half currently being allocated into (for tests). *)
