(** Per-core translation lookaside buffer: set-associative, LRU, tagged by
    address-space id so flushes can target one process (the paper's
    process-scoped shootdown) or a single page.

    Asids are non-negative; every function taking one raises
    [Invalid_argument] on a negative asid.  A flush of an empty TLB costs
    O(1), whatever its size. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes_full : int;
  mutable flushes_asid : int;
  mutable flushes_page : int;
}

val create : ?entries:int -> ?ways:int -> unit -> t
(** Defaults: 64 entries, 4-way (a typical L1 DTLB).
    @raise Invalid_argument unless [entries] and [ways] are positive and
    [ways] divides [entries]. *)

val lookup : t -> asid:int -> vpn:int -> int
(** The frame on a hit, [-1] on a miss; updates recency and hit/miss
    counters. *)

val rehit : t -> asid:int -> vpn:int -> times:int -> unit
(** [times] more hits on a resident entry, as [times] {!lookup}s that all
    hit would count and stamp them, in one call.
    @raise Invalid_argument if [(asid, vpn)] is not resident. *)

val insert : t -> asid:int -> vpn:int -> frame:int -> unit
(** Fill after a page walk: the set's first empty way, or else its LRU
    way, is evicted.  A resident [(asid, vpn)] is rewritten in place with
    the new frame and a fresh stamp, so no two ways ever hold the same
    pair and {!occupied} does not grow. *)

val flush_all : t -> unit

val flush_asid : t -> asid:int -> unit

val flush_page : t -> asid:int -> vpn:int -> unit

val iter_valid :
  t -> (asid:int -> vpn:int -> frame:int -> stamp:int -> unit) -> unit
(** Walk every valid entry, set by set and way by way, without touching
    recency, hit/miss stats or the entry order — the read path of the
    svagc_check TLB coherence oracle.  [stamp] is the entry's recency:
    the tick of its last lookup hit or fill. *)

val stats : t -> stats

val reset_stats : t -> unit

val entries : t -> int

val occupied : t -> int
(** Valid entries; O(1). *)
