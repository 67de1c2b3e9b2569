(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible bit-for-bit from a seed.

    The state is kept unboxed, so advancing it allocates nothing: {!int},
    {!int_in} and {!bool} allocate nothing at all, while {!int64} and
    {!float} allocate only the boxed number they return. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent stream; [t] advances. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** Fisher–Yates shuffle in place. *)
