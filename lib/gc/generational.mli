(** A generational heap with SwapVA-accelerated minor collections — the
    "Minor (copying)" row of the paper's Table I.

    Young and old are two plain heaps of one process, so object ids are
    unique across both.  The young space is a bump-allocated nursery; a
    minor collection evacuates every reachable young object into the old
    space through {!Evacuate} (placed there as an allocation would place
    it) and empties the nursery.  The two heaps occupy disjoint address
    ranges, so:

    - plain SwapVA applies (the ranges never overlap — the Table I "-" for
      the overlapping optimization),
    - copies of one minor cycle all happen together, so aggregation
      applies,
    - PMD caching applies as always.

    Old-to-young references are found by scanning old objects' reference
    slots (a remembered set / card table is modeled as a scan cost; the
    set of discovered roots is exact).  The old space is never collected:
    a promotion that does not fit is {!Out_of_memory}. *)

open Svagc_heap

type t

val create :
  Svagc_kernel.Process.t -> young_bytes:int -> old_bytes:int -> unit -> t

val young : t -> Heap.t

val old_space : t -> Heap.t

exception Out_of_memory

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** Allocate in the nursery; a full nursery triggers a minor collection,
    and an object bigger than the emptied nursery is pretenured into the
    old space.  @raise Out_of_memory when the survivors or the pretenured
    object do not fit in the old space. *)

val add_root : t -> Obj_model.t -> unit
(** Root an object wherever it currently lives. *)

val remove_root : t -> Obj_model.t -> unit

val set_ref : t -> Obj_model.t -> slot:int -> Obj_model.t option -> unit

val deref : t -> Obj_model.t -> slot:int -> Obj_model.t option
(** Resolves across both spaces. *)

val minor : t -> mover:Compact.mover -> Gc_stats.cycle
(** One minor collection: trace the nursery from its roots plus the
    old-to-young references, promote survivors (moved through [mover]:
    SwapVA for page-aligned large objects, memmove otherwise), reset the
    nursery.  The cycle's [moved_objects] / [live_bytes] are the promoted
    objects / bytes; it is all pause.
    @raise Out_of_memory, before anything moves, when the survivors do
    not fit in the old space. *)

val minors : t -> Gc_stats.cycle list
