(** Set-associative last-level cache model over *physical* addresses.

    Used to reproduce Table III: byte-copy compaction streams 2x the object
    bytes through the cache (polluting it), while SwapVA only touches page
    table words.  Accesses are recorded per 64-byte line.

    Every machine owns one, but only Table III touches it, so the ways
    are built on the first {!access}: creating a cache allocates nothing
    in proportion to its size.  Each way is one int (the line's tag) and
    each set keeps its ways in recency order, most recent first: an access
    moves its line to the front, and a miss drops the set's last way, its
    LRU line. *)

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
    @raise Invalid_argument if [addr] is negative. *)

val access_range : t -> addr:int -> len:int -> unit
(** Touch every line in [\[addr, addr+len)].
    @raise Invalid_argument if [addr] is negative. *)

val stats : t -> stats

val miss_rate : t -> float
(** misses / accesses in percent; 0 when no accesses. *)

val reset_stats : t -> unit

val line_bytes : t -> int
