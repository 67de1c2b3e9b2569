(** TLB shootdown policies (§IV "Multi-Core Scalability of SwapVA").

    After SwapVA updates PTEs, stale translations must leave every TLB that
    might hold them.  Correctness is identical under all policies (the
    simulator always invalidates the affected entries everywhere); what
    differs is the *cost* charged and the IPI traffic counted:

    - [Broadcast_per_call]: the naive kernel path — every SwapVA invocation
      IPIs all other online cores (Fig. 9 "unoptimized").
    - [Process_targeted]: the paper's first technique — IPIs flush only the
      calling process's entries on other cores, then a local flush.  Same
      IPI count per call, cheaper remote work; we charge a reduced remote
      cost.
    - [Local_pinned]: the paper's second technique (Algorithm 4) — the
      caller is pinned and a single up-front broadcast was already paid by
      the GC cycle, so each call flushes locally only.
    - [Self_invalidate]: the timer-based self-flushing alternative the
      paper cites (Awad et al. [24]): no IPIs at all — the caller bumps a
      global epoch and flushes locally; remote cores notice the stale
      epoch and flush themselves off the critical path (their cost is not
      charged to the caller). *)

open Svagc_vmem

type policy =
  | Broadcast_per_call
  | Process_targeted
  | Local_pinned
  | Self_invalidate

val flush_after_swap : Machine.t -> asid:int -> core:int -> policy -> float
(** Invalidate the process's stale entries and return the cost in ns. *)

val cycle_prologue : Machine.t -> asid:int -> core:int -> policy -> float
(** Cost paid once per GC cycle before any swap: the Algorithm 4 line 5
    [flush_tlb_all_cores] for [Local_pinned], 0 for the others. *)

