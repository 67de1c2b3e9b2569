(** A real host-parallel executor over OCaml 5 domains.

    This is the host side of the repo's parallelism story.  The split of
    responsibilities with {!Work_steal} is deliberate:

    - {!Work_steal} stays the {e simulated-time} model: phase makespans
      (the numbers the experiments publish) are replays of a
      work-stealing schedule over per-task simulated costs, exactly as
      before.
    - [Domain_pool] is the {e host-time} executor: the shards of
      {!Par_sweep}'s page-table audit actually run on [domains] hardware
      threads.  The GC phases never fan out; they run on the calling
      domain.

    Determinism contract ("sharding is semantic, domains are
    mechanical"): work is always expressed as a fixed number of
    {e shards} — deterministic, contiguous partitions produced by
    {!Reduce.slice} — and every shard writes only shard-local state (its
    own slice of a results array, its own scratch, its own
    [Svagc_vmem.Perf] delta).  Shard results are merged by the caller in
    canonical shard order with the {!Reduce} combinators.  The shard
    count and partition never depend on [domains], so a 1-domain run and
    an N-domain run execute byte-identical per-shard computations and
    merge them in the identical order: every observable output — clocks,
    counters, layouts, traces — is bit-identical.
    [Svagc_check.Differential.par_identity] enforces this for the sweep.

    Scheduling of shards onto domains is dynamic (an atomic claim
    counter), which affects only {e which} domain runs a shard, never
    the shard's result or the merge order.

    The pool is driven from the main domain only; a [run] issued from
    any other domain (nesting inside a worker) degrades to inline
    sequential execution, which is always safe.  Pool tasks never run
    SwapVA, whose scratch ([Machine.hot_scratch]) belongs to the main
    domain. *)

type t

val create : domains:int -> t
(** Spawn a pool of [domains - 1] worker domains ([domains = 1] spawns
    none and {!run} executes inline).
    @raise Invalid_argument unless [1 <= domains <= 128]. *)

val domains : t -> int
(** Total execution streams, the caller's domain included. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent; {!run} afterwards raises. *)

val run : t -> shards:int -> (int -> unit) -> unit
(** [run t ~shards task] executes [task 0 .. task (shards-1)], each
    exactly once, distributed over the pool's domains; returns when all
    shards completed.  Tasks must touch only shard-local state (see the
    module header).  If any task raised, the exception of the
    lowest-numbered failing shard is re-raised on the caller (canonical
    choice — independent of domain count); other shards still ran.
    With [domains t = 1], [shards <= 1], when called from any domain but
    the main one, or re-entrantly (from inside a shard of a batch already in
    flight), execution is inline and in shard order.
    @raise Invalid_argument when [shards < 0] or the pool is shut
    down. *)

val map_shards : t -> shards:int -> (int -> 'a) -> 'a array
(** [map_shards t ~shards f] is [[| f 0; ...; f (shards-1) |]] computed
    via {!run}: results land in canonical shard order regardless of
    which domain produced them. *)

val default_domains : unit -> int
(** The [DOMAINS] environment variable when set (clamped to
    [1 .. 128]); otherwise
    [min 4 (Domain.recommended_domain_count ())] — 4 matching the
    paper's [GCThreadsCount] tuning, fewer when the host has fewer
    cores. *)

val global : unit -> t
(** The process-wide pool, created on first use with
    {!default_domains} and joined at process exit.  {!Par_sweep.run}
    fans out through it by default; nothing else does. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** Scoped pool for tests and benchmarks: create, run [f], always
    shut down. *)

val with_global : domains:int -> (unit -> 'a) -> 'a
(** Run [f] with the process-wide pool temporarily replaced by a fresh
    [domains]-wide one (shut down afterwards; the previous global, if
    any, is restored untouched).  This is the oracle's lever:
    [Svagc_check.Differential.par_identity] replays the same sharded
    sweep under [with_global ~domains:1] and [~domains:4] and asserts
    the results are bit-identical.  [bench/e2e] pins [~domains:1]. *)
