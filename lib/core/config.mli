(** SVAGC configuration: the swapping threshold and every optimization
    toggle the paper evaluates (Table I / §III-IV), so each one can be
    ablated independently. *)

type t = {
  threshold_pages : int;
      (** Algorithm 3 [Threshold_Swapping]; 10 pages is the paper's
          break-even (Fig. 10) *)
  pmd_caching : bool;  (** Fig. 7/8 *)
  aggregation_batch : int;
      (** Fig. 5/6: max requests folded into one syscall; 1 turns
          aggregation off *)
  coalesce_runs : bool;
      (** request-level aggregation: adjacent compaction entries whose src
          AND dst ranges are contiguous merge into one larger SwapVA
          request before call-level batching, saving one per-request setup
          fee and keeping the kernel's PMD cache warm across the seam *)
  allow_overlap : bool;  (** Algorithm 2 for overlapping src/dst *)
  flush : Svagc_kernel.Shootdown.policy;
      (** [Local_pinned] is Algorithm 4's pinned compaction: pin, one
          up-front all-core shootdown, local-only flushes per call *)
  gc_threads : int;
  fault_spec : Svagc_fault.Fault_spec.t;
      (** Deterministic kernel fault injection ([--fault-spec]).  Empty
          (the default) leaves every simulated output bit-identical to a
          build without the fault plane; non-empty specs exercise the
          typed error paths and the GC's SwapVA→memmove degradation. *)
  fault_seed : int;
      (** Seed for the injector's per-clause PRNG streams
          ([--fault-seed]); same spec + same seed ⇒ byte-identical runs. *)
}

val default : t
(** All optimizations on: threshold 10, PMD caching, aggregation (batch
    64), overlap swapping, pinned compaction with local flushes, 4 GC
    threads. *)

val unoptimized : t
(** SwapVA with no internal optimizations and naive per-call broadcast
    shootdowns — the Fig. 8/9 baseline. *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive threshold, batch or thread
    count. *)
