(** A Large Object Space: the traditional non-moving home for big objects
    that the paper argues SwapVA makes unnecessary (§I: "the allocation of
    large objects in non-copying LOSs to avoid copying costs results in
    the fragmentation of these allocations, as well as increased
    maintenance costs and eventual compactions").

    Page-granular first-fit allocation over a dedicated region with a
    coalescing free list.  Objects never move, so freeing leaves holes;
    the fragmentation metrics below quantify the cost SVAGC avoids by
    keeping large objects in the conventional (compacted) heap. *)

type t

val create : Svagc_kernel.Process.t -> ?base:int -> size_bytes:int -> unit -> t
(** A region of [size_bytes] (page aligned) at [base] (default 16 GiB). *)

exception Los_full
(** Raised when no *contiguous* hole fits — even if enough total bytes are
    free (external fragmentation, the failure mode the paper describes). *)

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** First-fit, rounded up to whole pages.  @raise Los_full. *)

val free : t -> Obj_model.t -> unit
(** Return the object's pages to the free list, coalescing with adjacent
    holes.  @raise Invalid_argument if the object is not resident. *)

val object_count : t -> int

(** {2 Fragmentation metrics} *)

val capacity_bytes : t -> int

val free_bytes : t -> int
(** Total free, across all holes. *)

val largest_hole_bytes : t -> int

val hole_count : t -> int

val external_fragmentation : t -> float
(** [1 - largest_hole / free_bytes]: 0 when free space is one block, →1 as
    it shatters.  0 when nothing is free. *)

val can_fit : t -> size:int -> bool

val maintenance_cost_ns : t -> float
(** The free-list walk cost the next allocation will pay (per-hole scan at
    the machine's page-table access cost) — the paper's "increased
    maintenance costs". *)
