(** The shadow invariant oracle.

    An always-compilable, opt-in checker that cross-examines the simulated
    machine against the model it claims to implement: TLB coherence after
    shootdowns, perf-counter conservation laws (the Eq. 2 bookkeeping),
    simulated-clock and trace-span well-formedness, heap audits and
    per-GC-cycle accounting.  Oracles are pure observers — they never
    touch recency state, counters or costs, so a checked run is
    bit-identical to an unchecked one.

    Two ways to use it:

    - {b Stateless oracles} ({!tlb_coherence}, {!counter_laws}, ...) take
      the structures to examine and return [(items_inspected, findings)].
      A finding is a violated invariant; an empty list means the oracle
      passed.

    - {b Shadow mode} ({!enable} / {!disable}) installs the vmem
      observation hooks so every machine and address space created
      afterwards is registered automatically, every completed shootdown
      re-runs the TLB coherence and counter oracles, and the GC driver
      ([Jvm.run_gc]) feeds post-cycle heap audits and clock observations
      in.  Machines are referenced weakly: check mode never extends the
      lifetime of a machine's simulated frames. *)

type finding = {
  invariant : string;  (** which law was violated, e.g. ["tlb-coherence"] *)
  detail : string;  (** human-readable, with the offending values *)
}

val pp_finding : Format.formatter -> finding -> unit

type report = {
  label : string;
  oracles_run : int;  (** oracle passes executed *)
  items_checked : int;  (** TLB entries walked, laws evaluated, objects audited... *)
  machines_observed : int;
  shootdowns_observed : int;
  findings : finding list;  (** discovery order; empty = everything held *)
}

val pp_report : Format.formatter -> report -> unit

(** {1 Stateless oracles}

    Each returns [(items_inspected, findings)]. *)

val tlb_coherence :
  Svagc_vmem.Machine.t ->
  tables:(int * Svagc_vmem.Page_table.t) list ->
  int * finding list
(** Walk every valid TLB entry of every core; an entry whose [asid] is
    registered in [tables] must agree with that address space's live page
    table (same frame, still mapped).  Entries for unregistered asids are
    skipped — the oracle cannot know their truth. *)

val shootdown_flushed :
  Svagc_vmem.Machine.t -> asid:int -> int * finding list
(** After a completed shootdown for [asid], no core may hold a valid TLB
    entry for that asid at all. *)

val counter_laws : Svagc_vmem.Machine.t -> int * finding list
(** Conservation laws over the machine's perf counters: all counters
    non-negative, [ipis_sent = shootdown_broadcasts * (ncores-1) +
    ipis_lost], [swapva_calls <= syscalls], [bytes_remapped] page-sized,
    [tlb_flush_local >= ncores * tlb_flush_all],
    [ptes_swapped >= 2 * pmd_leaf_swaps],
    [pages_swapped_in <= pages_swapped_out],
    [major_faults >= pages_swapped_in], and
    [sched_dispatched + sched_cancelled <= sched_scheduled] (co-runs:
    every step run or dropped was queued first). *)

val reclaim_laws :
  Svagc_vmem.Machine.t ->
  tables:(int * Svagc_vmem.Page_table.t) list ->
  int * finding list
(** Memory-pressure conservation, evaluated only while the machine has a
    reclaim plane attached (trivially passes otherwise): every swapped
    PTE's slot is allocated on the swap device and referenced by exactly
    one PTE; the device holds exactly as many slots as there are swapped
    PTEs (slot-leak detection), and its near + far slots in use equal
    that total ([tier-conservation]: demotion and promotion neither leak
    nor forge slots); the machine's resident frame count
    equals the total present-PTE count over [tables] (every frame owned by
    exactly one page); and no two present frames or allocated slots share
    one stored payload ([reclaim-alias] — payloads move by ownership);
    and the reclaimer's tracking arena is sound ([reclaim-lru]: its
    [ri_lru_audit] finds nothing wrong with the LRU lists or the tenant
    rings).  The alias pass ({!Svagc_vmem.Phys_mem.last_alias}) leaves
    every payload as found.  [tables] must cover all the machine's address spaces —
    shadow mode registers them at creation. *)

val work_steal_oracle :
  ?threads:int ->
  ?steal_ns:float ->
  ?barrier_ns:float ->
  float array ->
  int * finding list
(** Run [Work_steal.run] over tasks with the given costs and assert its
    contract: every seeded task executes exactly once,
    [total_work_ns = sum of costs], [tasks] and [threads] echo the inputs,
    and the makespan sits between the critical-path lower bounds
    ([max cost], [total/threads]) and the serial upper bound
    ([total + steals * steal_ns + barrier_ns]); zero tasks cost zero. *)

val domain_safety : Svagc_par.Par_sweep.result -> int * finding list
(** The no-shared-leaf law of DESIGN.md §13 on a sharded sweep's result:
    shard records sit at their own canonical index, their PMD-leaf ranges
    form a contiguous disjoint partition (no leaf has two owners, none is
    skipped), no shard walked more leaves than it owns, and the merged
    totals are exactly the shard sums — counts and checksum by
    commutative addition, [walk_ns] as the bit-exact left-to-right float
    sum.  Together with {!Differential.par_identity} this pins the
    host-parallel sweep, the one computation on the pool, to the
    sequential semantics. *)

(** {1 Shadow mode} *)

val enable : ?label:string -> unit -> unit
(** Install the observation hooks and start accumulating.  Idempotent. *)

val enabled : unit -> bool

val disable : unit -> report option
(** Uninstall the hooks and return the accumulated report ([None] if
    shadow mode was not enabled). *)

val observe_clock : key:string -> float -> unit
(** Feed a simulated-clock reading (ns) under a unique [key]; a reading
    below the key's previous maximum is a clock regression.  No-op when
    shadow mode is off. *)

val post_gc :
  ?label:string -> Svagc_heap.Heap.t -> Svagc_gc.Gc_stats.cycle -> unit
(** Phase-boundary assertion for the end of a GC cycle: the cycle's
    accounting laws (non-negative phase times and byte counters,
    [swapped_objects <= moved_objects], page-sized [bytes_remapped]),
    [Heap.audit], TLB coherence, counter laws and the page tables'
    presence bitsets on the heap's machine, plus {!reclaim_laws} when a
    reclaim plane is attached and the fleet cgroup laws (limits sane, no
    tenant above its hard limit, charges equal to present PTEs) when it
    carries cgroups.  Called by [Jvm.run_gc]; no-op when shadow mode is
    off. *)

val observe_tracer : Svagc_trace.Tracer.t -> unit
(** Fold a trace well-formedness pass over a (stopped or running) tracer
    into the shadow report: non-negative span durations and timestamps,
    properly nested per-track spans, per-track instants monotone in
    simulated time, no span left open.  No-op when shadow mode is off. *)
