(** A process's virtual address space over a {!Machine}.

    Provides region mapping (backed by real simulated frames), raw byte IO
    through the page tables, and a *measured* access path that also
    exercises the per-core TLB and the shared cache model (used for the
    Table III experiment).  Raw IO performs no cost accounting: callers
    charge analytic costs from {!Cost_model}. *)

type t

val create : Machine.t -> t

val created_hook : (t -> unit) option ref
(** Fired at the end of {!create}; installed by the svagc_check shadow
    oracle while check mode is enabled (see [Machine.created_hook]). *)

val machine : t -> Machine.t

val asid : t -> int

val page_table : t -> Page_table.t

val map_range : t -> va:int -> pages:int -> unit
(** Back [pages] pages starting at page-aligned [va] with fresh frames.
    @raise Invalid_argument if [va] is not aligned or a page is already
    mapped.  @raise Phys_mem.Out_of_frames when the machine is full. *)

val unmap_range : t -> va:int -> pages:int -> unit
(** Unmap and free the backing frames.  Unmapped pages are skipped. *)

val is_mapped : t -> va:int -> bool
(** True for present *and* swapped-out pages (the page is owned, even if
    its bytes currently live on the swap device). *)

val translate : t -> va:int -> (int * int) option
(** [(frame, offset)]; no TLB interaction, no demand faulting — a
    swapped-out page translates to [None]. *)

val read_bytes : t -> va:int -> len:int -> bytes
(** @raise Invalid_argument if any page in the range is unmapped.  Like
    every frame-resolving accessor, demand-faults swapped pages back in
    through the machine's reclaim plane. *)

val peek_bytes : t -> va:int -> len:int -> bytes
(** Non-faulting read: present pages are read in place, swapped pages are
    read from their swap slot, and logically-zero pages yield zeroes —
    without swapping anything in, materializing zero frames, or touching
    LRU state.  The oracle-side dual of {!read_bytes}.
    @raise Invalid_argument if any page in the range is unmapped. *)

val peek_i64 : t -> va:int -> int64
(** Non-faulting little-endian 64-bit read (see {!peek_bytes}). *)

val write_bytes : t -> va:int -> src:bytes -> unit

val copy : t -> src:int -> dst:int -> len:int -> unit
(** C [memmove] of [len] bytes from [src] to [dst], frame to frame, one
    {!Phys_mem.copy} per page-bounded chunk (a whole page when both sides
    are page-aligned).  Each source page's payload is looked up once,
    through the peek view (see {!peek_bytes}), when the copy reaches it,
    and each destination page is resolved once, with its bytes written
    as soon as it resolves; with no pressure plane attached that is all
    the page-table walking a copy does.  With a plane, every source page
    is resolved first, in ascending order, so the plane sees the same
    demand faults and LRU touches, in the same order, as {!read_bytes} of
    the source followed by {!write_bytes} to the destination; a source
    page a destination fault-in evicts is then read from its swap slot,
    where its payload keeps its identity, and a lazily-zero source page is
    never materialized.  A forward overlap ([src < dst < src + len]) is
    staged through a buffer instead.
    @raise Invalid_argument if [len < 0] or any page is unmapped, possibly
    after copying the pages before it. *)

val read_u8 : t -> va:int -> int

val write_u8 : t -> va:int -> int -> unit

val read_i64 : t -> va:int -> int64

val write_i64 : t -> va:int -> int64 -> unit

val fill : t -> va:int -> len:int -> char -> unit

val checksum : t -> va:int -> len:int -> int64
(** FNV-1a over the range; the GC correctness oracle.  Peek-based: never
    faults pages in or perturbs reclaim state (see {!peek_bytes}). *)

val touch : t -> core:int -> va:int -> unit
(** Measured access: TLB lookup (refill through the page table on a miss,
    demand-faulting a swapped page back in first) and one LLC line touch
    at the physical address.
    @raise Invalid_argument if unmapped. *)

val touch_range : t -> core:int -> va:int -> len:int -> unit
(** {!touch} every cache line of the range, with the same TLB, LLC and
    reclaim effects: one LLC access per cache line, and one TLB
    resolution per page whose other lines count as hits in bulk. *)

val mapped_pages : t -> int
