(** Machine-wide event counters (the simulator's `perf`).

    Counters are plain ints in one array indexed by {!counter};
    experiments snapshot/reset around the region of interest. *)

type counter =
  | Syscalls
  | Swapva_calls
  | Memmove_calls
  | Ptes_swapped
  | Pt_walks  (** full 4-level getPTE walks *)
  | Pmd_cache_hits
  | Leaf_runs
      (** (leaf, start, len) slices processed by the flat SwapVA engine:
          one per PMD-leaf crossing per stream, the unit its batched fast
          path walks at *)
  | Runs_coalesced
      (** compaction move entries merged into a preceding contiguous
          SwapVA request (request-level aggregation) *)
  | Pmd_leaf_swaps
      (** whole 512-page leaf pairs exchanged at the PMD level by
          [Swapva.swap_disjoint_flat ~leaf_swap:true] *)
  | Bytes_copied  (** physically moved by memmove *)
  | Bytes_remapped  (** logically moved by SwapVA *)
  | Tlb_flush_local
  | Tlb_flush_page
  | Tlb_flush_all
      (** machine-wide [flush_tlb_all_cores] shootdowns; each one also
          counts [ncores] events in [Tlb_flush_local] (one per core
          actually flushed) *)
  | Ipis_sent
  | Ipis_lost
      (** shootdown IPIs dropped by the fault-injection plane; each lost
          IPI is detected via its missing ack and resent (also counted in
          [Ipis_sent]) *)
  | Shootdown_broadcasts
  | Pins
  | Gc_cycles
  | Swap_retries
      (** SwapVA requests re-issued after a transient [EAGAIN] fault *)
  | Swap_fallbacks
      (** SwapVA requests the GC abandoned and completed via memmove after
          a degradable kernel error (see [Kernel_error.is_degradable]) *)
  | Alloc_waste_bytes  (** page-alignment fragmentation *)
  | Alloc_bytes
  | Pages_swapped_out
      (** pages evicted to the swap device by kswapd-style reclaim *)
  | Pages_swapped_in
      (** pages read back on a demand fault; always [<= Pages_swapped_out] *)
  | Major_faults
      (** demand faults that hit a swapped PTE and had to touch the swap
          device (counted on fault entry, before the device IO) *)
  | Reclaim_scans
      (** LRU pages examined by kswapd (active-list aging + inactive-list
          eviction candidates) *)
  | Kswapd_wakes  (** watermark-triggered reclaim activations *)
  | Swap_io_errors
      (** injected swap-device EIOs observed (one per failed device
          attempt, both directions); see the [swap] fault site *)
  | Tier_demotions
      (** cold swap slots moved from the near tier to the far tier by a
          tiered device's placement policy; at most one per slot lifetime *)
  | Tier_promotions
      (** demand faults served from the far tier (the slot's payload came
          back over the slow path); always [<= Pages_swapped_in] *)
  | Admission_rejects
      (** tenants refused outright by fleet admission control (neither
          admitted nor queued) *)
  | Sched_scheduled
      (** co-run steps queued by [Multi_jvm.run_round_robin]: one per
          instance on entry, plus one per step that has a successor *)
  | Sched_dispatched
      (** co-run steps actually run, one per (instance, step); always
          [<= Sched_scheduled - Sched_cancelled] *)
  | Sched_cancelled
      (** queued steps dropped before running.  Nothing bumps it since
          co-runs became a plain loop; it stays so the counter set, and
          every report and digest built on it, is unchanged *)

type t
(** One value per {!counter}. *)

val all : counter list
(** Every counter, in declaration order (the order of {!to_assoc}). *)

val create : unit -> t

val get : t -> counter -> int

val bump : t -> counter -> int -> unit
(** [bump t c n] adds [n] to counter [c]. *)

val reset : t -> unit

val copy : t -> t
(** Snapshot. *)

val diff : after:t -> before:t -> t
(** Per-counter subtraction. *)

val add : into:t -> t -> unit
(** [add ~into delta] accumulates every counter of [delta] into [into] —
    the canonical-order merge of per-shard (domain-local) counter deltas
    back into a machine's counters.  Integer addition commutes, so the
    merged vector is independent of both the shard partition and the
    domain count; [Svagc_check.Differential.par_identity] holds the
    sharded paths to exactly that. *)

val to_assoc : t -> (string * int) list
(** Every counter as [(name, value)], in declaration order.  This is the
    counter source the trace recorder snapshots around spans. *)
