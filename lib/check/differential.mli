(** The differential harness: random swap schedules replayed through every
    SwapVA engine, asserting the equivalences the kernel promises.

    Three engine paths are compared on identical fresh machines:

    - [Per_page] — [Swapva.swap_disjoint_per_page], the executable
      reference;
    - [Flat] — [Swapva.swap_disjoint_flat], the engine behind the
      syscall, which must produce a bit-identical heap layout,
      perf-counter deltas (modulo its own [leaf_runs] bookkeeping
      counter) and bit-identical simulated cost;
    - [Leaf] — [swap_disjoint_flat ~leaf_swap:true], the O(1) PMD mode,
      which must produce the identical layout at no greater cost than
      [Flat] (its counters legitimately differ — it is outside the
      cost-equivalence guarantee).

    Each case is additionally pushed through the full syscall boundary
    ([swap_separated] with broadcast flushing and [swap_aggregated] with
    the SVAGC defaults) twice — once with no fault injector and once with
    an all-zero-rate injector — asserting the two runs are bit-identical
    in cost, counters and layout (the fault plane's rate-0 guarantee).

    {!par_identity} holds the sharded page-table sweep, the only pool
    computation, to the same bar across host domain counts. *)

type case = {
  seed : int;
  arena_pages : int;
  requests : Svagc_kernel.Swapva.request list;
      (** each request's src/dst ranges are disjoint (the engines'
          precondition); different requests may overlap freely *)
}

val arena_base : int
(** PMD-aligned VA where every case's arena is mapped. *)

val gen_case : ?arena_pages:int -> ?max_requests:int -> seed:int -> unit -> case
(** Deterministic schedule from [seed]: a mix of small runs, medium runs
    and (when the arena allows) whole PMD-aligned 512-page runs that light
    up the leaf-swap path. *)

type path = Per_page | Flat | Leaf

type replay = {
  cost : float;
  counters : (string * int) list;  (** [Perf.to_assoc] with [leaf_runs] zeroed *)
  layout : (int * int) list;  (** sorted [(vpn, frame)] of the final mapping *)
}

val replay : path -> case -> replay
(** Apply the case's requests in order through one engine on a fresh
    machine. *)

val compare_case : case -> int * Check.finding list
(** Engine equivalences for one case (see the module header). *)

val zero_fault_identity : case -> int * Check.finding list
(** Full-syscall replays with no injector vs. an all-zero-rate injector
    must be bit-identical. *)

val scrambled_arena :
  arena_pages:int -> seed:int -> Svagc_vmem.Machine.t * Svagc_vmem.Page_table.t
(** A fresh 4-core machine with [arena_pages] pages mapped at
    {!arena_base} and {!gen_case}[ ~arena_pages ~seed]'s schedule applied
    through the flat engine: the scrambled page table the sharded-sweep
    checks and [exp par] audit. *)

val par_identity : ?domains:int -> seed:int -> unit -> int * Check.finding list
(** The host-parallelism oracle (DESIGN.md §13), for the one computation
    that runs on the pool: an 8-shard {!Svagc_par.Par_sweep} over an
    arena scrambled by [seed]'s swap schedule, replayed once under a
    1-domain global pool and once under a [domains]-domain pool
    ([Svagc_par.Domain_pool.with_global]).  The two sweep results must
    be {e bit-identical} (per-shard stats, costs as float bits,
    checksums); each replay must also pass {!Check.domain_safety}, and
    its checksum must equal {!Svagc_par.Par_sweep.checksum_reference}.
    The GC phases run on the calling domain, so there is nothing of
    theirs to compare.  [domains] defaults to 4. *)

val run_suite : ?cases:int -> ?seed:int -> unit -> int * Check.finding list
(** [cases] generated schedules (default 40) through {!compare_case}
    and {!zero_fault_identity}; returns the combined (items, findings). *)

val par_suite : ?cases:int -> ?seed:int -> unit -> int * Check.finding list
(** [cases / 16 + 2] {!par_identity} sweeps at 1 vs 4 domains, seeded
    from [seed] (defaults as {!run_suite}); returns the combined (items,
    findings). *)
