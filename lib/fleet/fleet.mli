(** The fleet driver: 1k+ heterogeneous tenants on one overcommitted
    node, tying together {!Admission} (who runs),
    {!Svagc_reclaim.Cgroup} (per-tenant residency limits),
    {!Svagc_reclaim.Swap_tier} (where cold pages go) and
    [Multi_jvm] (copy-bandwidth contention while a wave runs).

    Tenants arrive in id order and commit their hard limit of resident
    frames; the pool is sized so the main cohort is exactly [overcommit]
    times oversubscribed.  Admitted tenants run as a wave of co-running
    JVMs (round-robin mutator steps, shared copy bandwidth); queued
    tenants run in later waves as commitments release; the rest are
    rejected.  Per-tenant GC-pause and allocation-stall distributions are
    collected into {!Svagc_util.Histogram}s so p50/p99/p999 — not just
    means — survive into the result.

    Fixed shape: each tenant's cgroup soft and hard limits are 0.5 and
    1.0 of its heap pages (the hard limit is also its admission
    commitment), and the near swap tier holds half the pool, in front of
    a far tier {!Svagc_reclaim.Swap_tier.far_cost_factor} times slower. *)

type config = {
  tenants : int;  (* main cohort, all sized to fit the overcommit budget *)
  surge : int;  (* late arrivals that exercise the queue and rejection *)
  overcommit : float;  (* committed : pool ratio the node is run at *)
  steps : int;  (* mutator steps per tenant *)
  seed : int;
  queue_limit : int;  (* admission wait-queue capacity *)
}

val default : config
(** 1000 tenants + 50 surge arrivals at 2x overcommit, 10 steps, seed
    42, queue capacity 24. *)

type tenant_stats = {
  t_id : int;
  t_class : string;
  t_heap_pages : int;
  mutable t_decision : Admission.decision;
  mutable t_wave : int;  (** which wave ran it; -1 = never ran *)
  t_gc_pauses : Svagc_util.Histogram.t;
  t_stalls : Svagc_util.Histogram.t;
  mutable t_gc_ns : float;
  mutable t_app_ns : float;
  mutable t_gc_count : int;
}

type result = {
  label : string;
  config : config;
  pool_frames : int;
  committed_frames : int;  (** peak: the main cohort's total commitment *)
  near_slots : int;
  waves : int;
  admitted : int;
  queued : int;
  rejected : int;
  stats : tenant_stats array;  (** by tenant id, rejected ones included *)
  pauses : Svagc_util.Histogram.t;  (** all GC pauses, all tenants *)
  stalls : Svagc_util.Histogram.t;  (** all per-step allocation stalls *)
  max_tenant_p99_pause : float;
  total_ns : float;  (** sum over waves of the slowest tenant's clock *)
  perf : Svagc_vmem.Perf.t;
  tier : int * int;  (** final (near_in_use, far_in_use) *)
}

val validate : config -> unit
(** @raise Invalid_argument naming the first out-of-range field:
    [tenants < 1], [surge < 0], [steps < 1], [overcommit < 1] (or NaN)
    or [queue_limit < 0]. *)

val run :
  collector_of:(Svagc_heap.Heap.t -> Svagc_gc.Gc_intf.t) ->
  ?label:string ->
  config ->
  result
(** Deterministic: same [config] (seed included) and collector replay
    every admission decision, demotion, promotion and percentile to the
    bit.  @raise Invalid_argument on nonsensical configs. *)
