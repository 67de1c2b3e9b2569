(** The heap's address index: object start address -> object record.

    An open-addressing table over two flat arrays (keys and records), so a
    lookup chases no bucket list and an insert allocates nothing once the
    table has grown.  Multiplicative (Fibonacci) hashing picks the home
    slot, collisions probe linearly, the load stays at most one half
    (the table doubles before it would exceed it), and {!remove} uses
    backward-shift deletion, so there are no tombstones.

    Keys are addresses and must be non-negative; [-1] marks an empty
    slot.  The table is never iterated, so its slot order cannot reach any
    output. *)

type t

val create : unit -> t
(** An empty index with 16 slots. *)

val length : t -> int

val capacity : t -> int
(** Number of slots (a power of two). *)

val home : capacity:int -> int -> int
(** The slot a key hashes to in a table of [capacity] slots; exposed so
    tests can build colliding keys. *)

val replace : t -> int -> Obj_model.t -> unit
(** Bind the address, overwriting any previous binding.
    @raise Invalid_argument on a negative address. *)

val remove : t -> int -> unit
(** Drop the binding if there is one. *)

val find : t -> int -> Obj_model.t
(** @raise Not_found when the address is unbound.  Allocates nothing. *)

val find_opt : t -> int -> Obj_model.t option

val clear : t -> unit
(** Drop every binding and keep the capacity. *)
