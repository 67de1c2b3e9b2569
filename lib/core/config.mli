(** SVAGC configuration: the swapping threshold and the optimization
    toggles the paper's ablations vary (Table I / §III-IV).  Run
    coalescing and the overlapping-area path (Algorithm 2) are always on;
    an all-off baseline is [{ default with pmd_caching = false;
    aggregation_batch = 1; flush = Broadcast_per_call }]. *)

type t = {
  threshold_pages : int;
      (** Algorithm 3 [Threshold_Swapping]; 10 pages is the paper's
          break-even (Fig. 10) *)
  pmd_caching : bool;  (** Fig. 7/8 *)
  aggregation_batch : int;
      (** Fig. 5/6: max requests folded into one syscall; 1 turns
          aggregation off *)
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
    64), pinned compaction with local flushes, 4 GC threads. *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive threshold, batch or thread
    count. *)
