(** The managed heap: a contiguous virtual range with bump-pointer
    allocation following the paper's Algorithm 3 — objects at or above the
    swapping threshold are placed on page boundaries and own their pages
    exclusively, so the GC can move them by swapping PTEs.

    Algorithm 3's placement rule ([IfSwapAlign]) lives here once: {!alloc}
    applies it to a new object ([AllocMem]) and {!place} to a collection's
    survivors ([CalcNewAdd]), whether they slide within this heap (LISP2)
    or are evacuated into it from another (the copying collectors).

    The heap is GC-agnostic: collectors (lib/gc, lib/core) drive marking,
    forwarding, adjusting and compaction through this interface.  Object
    ids come from the owning process ({!Svagc_kernel.Process.fresh_object_id}),
    so they stay unique across every heap of that process. *)

type t

val default_base : int
(** 4 GiB: where {!create} places a heap unless told otherwise. *)

val create :
  Svagc_kernel.Process.t ->
  ?base:int ->
  ?threshold_pages:int ->
  size_bytes:int ->
  unit ->
  t
(** A heap of [size_bytes] starting at [base] (default {!default_base},
    page aligned).  [threshold_pages] (default 10, the paper's break-even) is
    the Algorithm 3 [Threshold_Swapping].  Every object's id and size are
    stamped into its header in simulated memory, which {!header_matches}
    and {!audit} read back. *)

val proc : t -> Svagc_kernel.Process.t

val base : t -> int

val limit : t -> int
(** One past the last usable byte ([heap.end] in Algorithm 3). *)

val top : t -> int

val threshold_pages : t -> int

val swap_sized : t -> size:int -> bool
(** Algorithm 3's one size test, [size >= threshold_pages * page_size]:
    an object this large is page-aligned before and after it wherever the
    heap places it ({!alloc}, {!place}, a TLAB's page-aligned end), so
    it owns its pages and may move by swapping PTEs. *)

exception Heap_full

val alloc : t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** Algorithm 3 [AllocMem] from the shared space: page-aligns large
    objects before and after placement, accounts alignment waste in the
    machine's perf counters, maps fresh pages on demand and stamps the
    header.  @raise Heap_full when the aligned request does not fit (the
    caller is expected to run a GC and retry). *)

val alloc_at : t -> addr:int -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** Register an object at an address obtained externally (the TLAB path).
    The range must lie inside the heap below [top]. *)

val alloc_chunk : t -> bytes:int -> int
(** Carve a page-aligned TLAB chunk out of the shared space and return its
    start.  @raise Heap_full when it does not fit. *)

val place : t -> top:int -> Obj_model.t array -> int
(** Algorithm 3 [CalcNewAdd]: lay [live] out in the given order from
    [top], page-aligning each object at or above the threshold before and
    after it exactly as {!alloc} would, set each one's [forward] to its
    placement and return the top the layout ends at.  Mutates nothing
    else: neither the heap (the result may exceed {!limit}) nor the
    objects' addresses. *)

val reset : t -> unit
(** Empty the space: forget every object and root and pull the top back to
    the base (the end of an evacuation for the from-space).  Backing
    frames stay mapped. *)

val ensure_mapped_to : t -> int -> unit
(** Make sure every page below the given address is backed. *)

(** {2 Object graph} *)

val objects : t -> Obj_model.t Svagc_util.Vec.t
(** All live-or-unreclaimed objects, in allocation order until a
    collection leaves them in address order. *)

val object_at : t -> int -> Obj_model.t option
(** Lookup by current address, through the heap's {!Svagc_util.Addr_index}: an
    open-addressing table over flat arrays that registering an object
    keeps current. *)

val find_object : t -> int -> Obj_model.t
(** {!object_at} without the option: allocates nothing, which is why the
    collector's per-reference lookups (mark, adjust) use it.
    @raise Not_found when no object starts at the address. *)

val adopt_survivors : t -> Obj_model.t array -> top:int -> unit
(** The end of a moving collection into this heap, in one pass over
    [survivors] (objects already moved to their [forward] addresses inside
    this heap, in ascending address order): each takes its [forward]
    address as [addr] and has [marked] and [forward] cleared, and is
    appended to the object set and the address index; the top moves to
    [top].  Roots are untouched. *)

val commit_survivors : t -> Obj_model.t array -> top:int -> unit
(** {!adopt_survivors} after forgetting every object: the survivors become
    the heap's whole object set — the end of a compaction in place. *)

val add_root : t -> Obj_model.t -> unit

val remove_root : t -> Obj_model.t -> unit

val iter_roots : t -> (Obj_model.t -> unit) -> unit

val root_count : t -> int

val set_ref : t -> Obj_model.t -> slot:int -> Obj_model.t option -> unit
(** Point [slot] of the object at another object (or null). *)

val deref : t -> Obj_model.t -> slot:int -> Obj_model.t option
(** Follow a reference slot.  @raise Invalid_argument on a dangling
    address — that would be a GC bug. *)

(** {2 Payload IO (through the MMU)} *)

val write_payload : t -> Obj_model.t -> off:int -> bytes -> unit
(** [off] is relative to the payload (header excluded). *)

val read_payload : t -> Obj_model.t -> off:int -> len:int -> bytes

val checksum_object : t -> Obj_model.t -> int64
(** Over the full object range, header included. *)

val touch_object : t -> Obj_model.t -> core:int -> max_bytes:int -> unit
(** Measured access to the object's first [max_bytes] (TLB + LLC models);
    used by the Table III instrumentation. *)

val header_matches : t -> Obj_model.t -> bool
(** Re-read the stamped header and compare with the mirror — the
    oracle that object moves preserved identity. *)

(** {2 Statistics} *)

val used_bytes : t -> int
(** [top - base]. *)

val live_bytes : t -> int
(** Sum of registered object sizes. *)

val wasted_bytes : t -> int
(** Alignment waste accumulated by this heap's allocations. *)

val object_count : t -> int

val audit : t -> (unit, string list) result
(** Post-GC invariant check, used by the resilience experiment and the
    fault-injection tests as the ground truth that degraded collections
    still produced a correct heap.  Verifies, for every live object: its
    range lies inside the heap bounds, every page it touches still
    translates through the page table, and its stamped header (id, size)
    reads back intact through the MMU; then checks that no two live
    objects overlap.  [Error] carries one human-readable line per
    violation, in discovery order. *)
