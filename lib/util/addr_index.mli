(** An int-keyed table: non-negative key -> value.  The page table
    indexes its leaves by PMD number with it, the reclaimer its tracked
    pages by packed [(asid, vpn)] key.

    An open-addressing table over two flat arrays (keys and values), so a
    lookup chases no bucket list and an insert allocates nothing once the
    table has grown.  Multiplicative (Fibonacci) hashing picks the home
    slot, collisions probe linearly, the load stays at most one half
    (the table doubles before it would exceed it), and {!remove} uses
    backward-shift deletion, so there are no tombstones.

    Keys must be non-negative; [-1] marks an empty slot.  Every empty
    value slot holds the {e filler} given to {!create}, so a removed value
    is not kept alive by its old slot, and {!find_or_filler} returns it
    for an unbound key.  The table is never iterated, so its slot order
    cannot reach any output. *)

type 'a t

val create : 'a -> 'a t
(** An empty table with 16 slots whose empty slots hold the filler. *)

val length : 'a t -> int

val capacity : 'a t -> int
(** Number of slots (a power of two). *)

val home : capacity:int -> int -> int
(** The slot a key hashes to in a table of [capacity] slots; exposed so
    tests can build colliding keys. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, overwriting any previous binding.
    @raise Invalid_argument on a negative key. *)

val remove : 'a t -> int -> unit
(** Drop the binding if there is one. *)

val find : 'a t -> int -> 'a
(** @raise Not_found when the key is unbound.  Allocates nothing. *)

val find_or_filler : 'a t -> int -> 'a
(** The binding, or the filler when the key is unbound.  Allocates
    nothing. *)
