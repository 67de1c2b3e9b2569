(** Simulated physical memory: a pool of 4 KiB frames whose contents are
    real bytes, so data movement performed by the kernel (memmove) and by
    SwapVA (PTE remapping) is observable and checkable byte-for-byte.

    A frame's contents are a {!payload} that costs the bytes written to
    it, not a page: 32 lines of 128 bytes, of which only the lines ever
    written are stored, an absent line reading as zero.  A payload with
    more than half its lines present turns into a dense page.  A frame
    nothing has written holds the shared {!zero} payload, and writing
    zeros leaves an absent line absent.  A copy stores what it carries: a
    whole page leaves the destination storing exactly the source's
    lines (none, and the destination holds {!zero} again, when the source
    stores none), and a partial copy onto a sparse page stores the lines
    a stored source line lands on and drops back to absent the whole
    lines it covers with absent ones.  Payloads move between frames and
    swap slots by ownership ({!take_frame}, {!alloc_frame_with}); every
    read and write goes through the operations below, and no raw view of
    a frame's bytes is exported.

    The pool is lazy: creating one allocates nothing in proportion to its
    capacity.  Per-frame state exists only for frames handed out at least
    once (it grows on demand).  The handout order is a contract, because
    frame numbers reach physical addresses, the LLC model and traces:
    {!alloc_frame} returns the most recently freed frame first, and
    otherwise the lowest never-used one, so a fresh pool counts up from
    0.

    Every function taking a frame raises [Invalid_argument
    "Phys_mem.<function>: no such frame"] for a frame outside the pool and
    [Invalid_argument "Phys_mem.<function>: frame not in use"] for a free
    one; every offset range must stay inside one page. *)

type t

type payload
(** A page's contents.  Abstract: it is read through the functions below
    and written only through the frame that owns it. *)

val create : frames:int -> t
(** A pool of [frames] frames, none in use. *)

val capacity_frames : t -> int

val frames_in_use : t -> int

exception Out_of_frames

val alloc_frame : t -> int
(** Returns a free frame number holding {!zero}, in the order the module
    header describes.  @raise Out_of_frames when all [frames] are in
    use. *)

val free_frame : t -> int -> unit
(** Returns a frame to the pool. *)

(** {2 Payloads} *)

val zero : payload
(** The all-zero page, shared by every frame and swap slot nothing has
    written. *)

val lines : payload -> int
(** How many of the page's 32 lines are stored: 0 for {!zero}, 32 for a
    dense page. *)

val payload : t -> int -> payload
(** The frame's payload, without materializing anything.  It stays the
    frame's: the caller must not install it anywhere. *)

val take_frame : t -> int -> payload
(** Free the frame and hand its payload to the caller — swap-out moves
    the payload to the device instead of copying it. *)

val alloc_frame_with : t -> payload -> int
(** {!alloc_frame} whose contents are the given payload, taken by
    ownership: no other frame or slot may keep it.
    @raise Out_of_frames. *)

val last_alias : payload array -> int array
(** For each index [i], the last index holding the very same payload
    ([i] itself when it is unshared, and for {!zero}, which every
    unwritten page shares).  Payloads are left as found.  The oracle's
    check that ownership moves never duplicate a payload. *)

(** {2 Reads}

    They allocate nothing. *)

val read_into : payload -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Copy [len] bytes at [off] into [dst] at [dst_off]. *)

val get_u8 : payload -> int -> int

val get_i64 : payload -> int -> int64
(** The little-endian 64-bit word at any byte offset up to
    [page_size - 8]. *)

val fnv1a : payload -> off:int -> len:int -> int64 -> int64
(** Continue an FNV-1a hash over [len] bytes at [off]. *)

(** {2 Writes}

    They store the lines they write non-zero bytes into, and allocate
    nothing else. *)

val write : t -> frame:int -> off:int -> src:bytes -> src_off:int -> len:int -> unit

val set_i64 : t -> frame:int -> off:int -> int64 -> unit
(** Store a little-endian 64-bit word at any byte offset up to
    [page_size - 8]. *)

val fill : t -> frame:int -> off:int -> len:int -> char -> unit

val copy :
  t -> src:payload -> src_off:int -> frame:int -> off:int -> len:int -> unit
(** C [memmove] of [len] bytes from [src] at [src_off] into [frame] at
    [off], costing the lines it carries.  A whole page ([len] =
    [page_size]) gives [frame] exactly [src]'s stored lines, blitted into
    the frame's own buffer when it has room and into one fresh buffer
    otherwise; a source storing nothing leaves {!zero}.  A partial copy
    onto a sparse page drops the whole lines covered only by absent
    source lines and stores every line a stored one lands on, each in one
    pass over the page and with at most one fresh buffer; the page turns
    dense if it would hold more than 16 lines (counted after the drop, or
    before it when [src] is the frame's own payload, whose lines are
    dropped last); a dense page stays dense.  The
    source's buffer is never shared.  [src] may be the frame's own payload, with ranges
    that overlap as long as [off <= src_off].
    @raise Invalid_argument ["Phys_mem.copy: overlapping copy up"] when
    [src] is the frame's own payload and [src_off < off < src_off +
    len]. *)
