(** Streaming summary of a scalar sample (latencies, sizes, ...). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the sample store — across a 10k-tenant fleet
    the per-tenant histograms have a known sample budget (steps, GC
    count), and pre-sizing avoids both doubling churn and the 2x
    over-allocation tail of growth-by-doubling. *)

val add : t -> float -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** 0 when empty. *)

val max : t -> float
(** 0 when empty. *)

val min : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]] (nearest-rank on the recorded
    samples).  0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]]: the nearest-rank sample
    [ceil (q * n)] (1-indexed), computed with an epsilon guard so exact
    rank boundaries (e.g. q = 0.999 over 1000 samples) are not pushed one
    sample high by float rounding.  0 when empty. *)

val p50 : t -> float

val p99 : t -> float

val p999 : t -> float
(** Tail-latency accessors: [quantile] at 0.5 / 0.99 / 0.999. *)

val merge : t -> t -> t
(** Combine two sample sets into a fresh one. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into b] appends [b]'s samples to [into] in one blit (no
    re-sort, no fresh histogram).  Folding [n] tenants' histograms into a
    fleet-wide one is O(total samples) this way, where repeated {!merge}
    is O(n * total).  Quantiles sort lazily on the next query, so sample
    order does not affect any percentile. *)
