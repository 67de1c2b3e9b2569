(** Deterministic reduction combinators for sharded computations.

    Everything the pool fans out comes back through here: per-shard
    partial results are merged in {e canonical shard order} (index 0
    upward), never in completion order.  Because each shard's value is
    computed by a pure deterministic function of the shard's slice, and
    the merge order is fixed, the reduced value is bit-identical whether
    the shards ran on one domain or sixteen — including float results,
    whose addition is not associative and therefore {e must not} be
    re-grouped by the scheduler.

    Two invariance levels, used precisely by the tests:

    - {e domain-invariance}: same shard count, any domain count — every
      combinator here is bit-exact, floats included.
    - {e partition-invariance}: different shard counts — only holds for
      merges that are associative over the underlying maths (integer
      sums like {!sum_ints} and {!merge_perfs}, order-insensitive mixes
      like an additive checksum).  Float sums regroup under a different
      partition and may round differently; callers that publish float
      totals must fix the shard count as part of the experiment's
      semantics (see DESIGN.md §13). *)

val slice : len:int -> shards:int -> int -> int * int
(** [slice ~len ~shards i] is the [(lo, hi)] half-open range of shard
    [i] in the canonical contiguous partition of [0 .. len-1]: sizes
    differ by at most one, earlier shards get the remainder, empty
    shards are allowed ([lo = hi]).  This is THE partition function —
    both the sequential and the parallel path of a sharded computation
    must derive their slices from it.
    @raise Invalid_argument when [shards <= 0], [len < 0] or [i] is out
    of range. *)

val fold_shards : 'a array -> init:'acc -> f:('acc -> 'a -> 'acc) -> 'acc
(** Left fold over per-shard results in canonical order — the one
    reduction primitive everything else is written in terms of. *)

val concat : 'a array array -> 'a array
(** Concatenate per-shard segments in shard order.  When shard [i]
    produced the slice [lo_i .. hi_i) of a conceptual array, the result
    is that array, element for element. *)

val sum_ints : int array -> int

val sum_floats : float array -> float
(** Left-to-right float sum.  Domain-invariant at a fixed shard count;
    NOT partition-invariant (see the module header). *)

val merge_perfs :
  into:Svagc_vmem.Perf.t -> Svagc_vmem.Perf.t array -> unit
(** Add per-shard perf-counter deltas into [into], in shard order.  All
    counters are integer sums, so this merge is partition- and
    domain-invariant. *)
