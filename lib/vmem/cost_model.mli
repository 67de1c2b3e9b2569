(** Calibrated event costs for the simulated machines.

    Every cost is in nanoseconds of simulated time.  The three presets model
    the paper's testbeds; absolute values are order-of-magnitude calibrations
    (documented per field), and EXPERIMENTS.md records how the resulting
    shapes compare to the paper's figures.  Copy bandwidth is tiered by copy
    size because small memmoves run out of cache while multi-MiB ones are
    DRAM-bound — this tiering is what creates the Fig. 10 break-even
    threshold. *)

type t = {
  name : string;
  cpu_ghz : float;
  ncores : int;  (** cores of the modeled machine *)
  dram_gib : int;  (** advertised capacity, for reporting only *)
  mem_access_ns : float;  (** uncached DRAM load *)
  pt_entry_ns : float;  (** one page-table word access during a walk *)
  lock_pair_ns : float;  (** pte_offset_map_lock + pte_unmap_unlock *)
  pmd_swap_ns : float;
      (** leaf-swap fast path: exchanging one pair of PMD directory entries
          (two locked 8-byte writes at the PMD level) remaps a whole
          512-page leaf in O(1).  Only charged by
          [Swapva.swap_disjoint_flat ~leaf_swap:true]; the syscall path
          never uses it, so SwapVA's simulated costs are unaffected by its
          value. *)
  syscall_ns : float;  (** user/kernel crossing, round trip *)
  swap_setup_ns : float;
      (** per-request setup inside SwapVA (vma checks, argument
          validation); charged once per request even in an aggregated
          batch *)
  tlb_flush_local_ns : float;  (** flush_tlb_local *)
  tlb_flush_page_ns : float;  (** invlpg-style single-page flush *)
  ipi_ns : float;  (** IPI delivery latency (send + first ack) *)
  ipi_ack_ns : float;
      (** incremental initiator-side cost per additional remote core in a
          broadcast (sends go out in parallel; acks are gathered) *)
  tlb_refill_ns : float;  (** page walk on a post-flush miss *)
  pin_ns : float;  (** sched_setaffinity-style pin/unpin *)
  l2_copy_bytes : int;  (** copies up to this size run at [cache_copy_bw] *)
  cache_copy_bw : float;  (** bytes/ns for cache-resident memmove *)
  dram_copy_bw : float;  (** bytes/ns single-thread DRAM-bound memmove *)
  machine_copy_bw : float;  (** bytes/ns total machine copy bandwidth ceiling *)
  mark_obj_ns : float;
      (** per-object marking work: header load, bitmap set, queue ops —
          scattered accesses, hence several DRAM latencies *)
  forward_obj_ns : float;  (** per-object forwarding-address calculation *)
  adjust_obj_ns : float;  (** per-object pointer-adjustment overhead *)
  ref_scan_ns : float;  (** per reference slot traced or adjusted *)
  barrier_ns : float;  (** parallel GC phase barrier *)
  steal_ns : float;  (** one work-stealing attempt *)
  retry_backoff_ns : float;
      (** base backoff the GC charges before re-issuing a SwapVA request
          that failed with a transient [EAGAIN]; attempt [k] (0-based)
          waits [retry_backoff_ns *. 2.0 ** k] simulated ns *)
  swap_out_ns : float;
      (** writing one 4 KiB page to the simulated swap device (submission +
          transfer at NVMe-class bandwidth); charged per page evicted by
          kswapd-style reclaim, and per device retry after an injected
          EIO.  [Swap_tier.create ?swap_cost_ns] can override it per
          device. *)
  swap_in_ns : float;
      (** reading one 4 KiB page back from the swap device on a demand
          fault; same override as [swap_out_ns] *)
  major_fault_ns : float;
      (** fault-handler entry/exit around a swap-in: trap, vma lookup,
          page allocation bookkeeping — charged once per major fault on
          top of the device transfer *)
}

val i5_7600 : t
(** Intel Core i5-7600 @ 3.5 GHz, 24 GB DDR4-2400 (Figs. 1, 6, 8). *)

val xeon_6130 : t
(** Dual Xeon Gold 6130 @ 2.1 GHz, 32 cores, 192 GB DDR4-2666 (the main
    evaluation machine: Figs. 2, 9–16, Table III). *)

val xeon_6240 : t
(** Xeon Gold 6240 @ 2.6 GHz, 192 GB DDR4-2933 (Fig. 10b). *)

val presets : t list

val memmove_bw : t -> bytes_len:int -> float
(** Effective single-thread copy bandwidth (bytes/ns) for a copy of
    [bytes_len] bytes: cache-tier below [l2_copy_bytes], DRAM-tier above,
    with a smooth switch at the boundary. *)

val contended_bw : t -> streams:int -> bw:float -> float
(** Bandwidth available to one of [streams] concurrent copy streams:
    [min bw (machine_copy_bw / streams)]. *)

val walk_cost_ns : t -> float
(** Full 4-level walk + PTE access: [5 * pt_entry_ns]. *)

val pp : Format.formatter -> t -> unit
