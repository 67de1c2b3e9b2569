(** Set-associative last-level cache model over *physical* addresses.

    Used to reproduce Table III: byte-copy compaction streams 2x the object
    bytes through the cache (polluting it), while SwapVA only touches page
    table words.  Accesses are recorded per 64-byte line.

    Every machine owns one, but only Table III touches it, so the ways
    are built on the first {!access}: creating a cache allocates nothing
    in proportion to its size.  Each way is one packed int (recency stamp
    and tag); when the stamp field fills, after 2{^31} accesses, every
    set's stamps are renumbered in LRU order, which changes no later hit
    or victim. *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
}

val create : ?size_bytes:int -> ?line_bytes:int -> ?ways:int -> unit -> t
(** Defaults: 8 MiB, 64 B lines, 16-way.
    @raise Invalid_argument unless every size is positive, [line_bytes] is
    a power of two and the lines split into a power-of-two number of
    whole sets of [ways]. *)

val access : t -> addr:int -> unit
(** Touch one physical address (one line).
    @raise Invalid_argument if the address's tag needs more than 31 bits
    (2{^50} bytes and up with the default geometry). *)

val access_range : t -> addr:int -> len:int -> unit
(** Touch every line in [\[addr, addr+len)]. *)

val stats : t -> stats

val miss_rate : t -> float
(** misses / accesses in percent; 0 when no accesses. *)

val reset_stats : t -> unit

val line_bytes : t -> int

(**/**)

val skip_ticks : t -> int -> unit
(** Test hook: advance the recency clock by [n] ticks without an access.
    Every later stamp grows by [n] and no set's LRU order changes, so a
    test can reach the stamp bound without 2{^31} accesses.
    @raise Invalid_argument if [n] is negative or would pass the bound. *)
