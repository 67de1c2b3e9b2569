(** The simulated swap device: a growable array of page-sized slots.

    Slots hold their payload as [bytes option] — [None] is a logically
    zero page, mirroring [Phys_mem]'s lazy frames, so an untouched page
    can round-trip through swap without its 4 KiB ever being allocated.
    The device itself is free of timing and failure policy: latencies are
    charged and injected EIOs decided by {!Reclaim}, which also owns slot
    lifetime (a slot is allocated on swap-out and freed on swap-in or
    when its owning page is unmapped). *)

type t

val create : unit -> t
(** An empty device; capacity grows on demand. *)

val alloc_slot : t -> int
(** Claim a slot: the most recently freed one, or else the next never-used
    one, so slot numbers are deterministic and stay small. *)

val free_slot : t -> int -> unit
(** @raise Invalid_argument if the slot is not allocated. *)

val write : t -> slot:int -> bytes option -> unit
(** Store a page payload by ownership ([None] records a zero page): the
    caller hands the buffer over and must keep no other reference to it.
    @raise Invalid_argument if the slot is not allocated. *)

val take : t -> slot:int -> bytes option
(** Free the slot and hand its payload to the caller ([None] = zero page),
    which now owns the buffer — read and free in one call.
    @raise Invalid_argument if the slot is not allocated. *)

val peek : t -> slot:int -> bytes option
(** The stored payload without freeing the slot: the device's own buffer,
    read-only for the caller — the oracle/checksum path, allocation-free.
    @raise Invalid_argument if the slot is not allocated. *)

val allocated : t -> slot:int -> bool

val slots_in_use : t -> int
