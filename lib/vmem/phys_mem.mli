(** Simulated physical memory: a pool of 4 KiB frames backed by real
    [Bytes], so data movement performed by the kernel (memmove) and by
    SwapVA (PTE remapping) is observable and checkable byte-for-byte.

    The pool is lazy: creating one allocates nothing in proportion to its
    capacity.  Per-frame state exists only for frames handed out at least
    once (it grows on demand), and a frame payload only once something
    touches its bytes.  The handout order is a contract, because frame
    numbers reach physical addresses, the LLC model and traces:
    {!alloc_frame} returns the most recently freed frame first, and
    otherwise the lowest never-used one, so a fresh pool counts up from
    0. *)

type t

val create : frames:int -> t
(** A pool of [frames] frames, none in use. *)

val capacity_frames : t -> int

val frames_in_use : t -> int

exception Out_of_frames

val alloc_frame : t -> int
(** Returns a free frame number (zero-filled), in the order the module
    header describes.  @raise Out_of_frames when all [frames] are in
    use. *)

val free_frame : t -> int -> unit
(** Returns a frame to the pool.  @raise Invalid_argument if not in use. *)

val frame_bytes : t -> int -> bytes
(** Direct view of a frame's backing store (always [page_size] long).
    @raise Invalid_argument if the frame is not in use. *)

val frame_contents : t -> int -> bytes option
(** Like {!frame_bytes} but without materializing a lazily-zeroed frame:
    [None] means "logically all zeroes".  Lets the swap device carry an
    untouched zero page without ever allocating its 4 KiB.
    @raise Invalid_argument if the frame is not in use. *)

val take_frame : t -> int -> bytes option
(** Free the frame and hand its payload to the caller ([None] = zero
    page) — swap-out moves the buffer to the device instead of copying it.
    @raise Invalid_argument if the frame is not in use. *)

val alloc_frame_with : t -> bytes option -> int
(** {!alloc_frame} whose payload is the given buffer, taken by ownership:
    the caller must keep no other reference to it.  [None] gives a
    zero-filled frame that stays lazily unmaterialized.
    @raise Invalid_argument if the buffer is not [page_size] long.
    @raise Out_of_frames. *)

val read : t -> frame:int -> off:int -> len:int -> bytes

val read_into :
  t -> frame:int -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Copy [len] bytes at [off] of [frame] into [dst] at [dst_off].  A
    lazily-zeroed frame yields zeroes and stays unmaterialized.
    @raise Invalid_argument if the frame is not in use. *)

val write : t -> frame:int -> off:int -> src:bytes -> src_off:int -> len:int -> unit

val blit :
  t -> src_frame:int -> src_off:int -> dst_frame:int -> dst_off:int -> len:int -> unit
(** Copy within/between frames; ranges must stay inside one page each. *)
