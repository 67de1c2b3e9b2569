(** Set-associative last-level cache model over *physical* addresses.

    Used to reproduce Table III: byte-copy compaction streams 2x the object
    bytes through the cache (polluting it), while SwapVA only touches page
    table words.  Accesses are recorded per 64-byte line.

    Every machine owns one, but only Table III touches it, so the set
    arrays are built on the first {!access}: creating a cache allocates
    nothing in proportion to its size. *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
}

val create : ?size_bytes:int -> ?line_bytes:int -> ?ways:int -> unit -> t
(** Defaults: 8 MiB, 64 B lines, 16-way. *)

val access : t -> addr:int -> unit
(** Touch one physical address (one line). *)

val access_range : t -> addr:int -> len:int -> unit
(** Touch every line in [\[addr, addr+len)]. *)

val stats : t -> stats

val miss_rate : t -> float
(** misses / accesses in percent; 0 when no accesses. *)

val reset_stats : t -> unit

val line_bytes : t -> int
