(** Algorithm 3 [MoveObject] as a compaction mover: objects spanning at
    least [threshold_pages] pages move by swapping their PTEs (batched into
    aggregated SwapVA calls of up to [aggregation_batch] requests),
    everything else falls back to byte copy.  With [Local_pinned]
    flushing the mover implements Algorithm 4: pin, one up-front all-core
    shootdown, local-only flushes per call, unpin.

    {b Kernel error handling.}  SwapVA reports failures as typed
    [Svagc_fault.Kernel_error.t] values and guarantees a failed request
    mutated nothing, so the mover degrades gracefully instead of crashing
    the GC: transient [EAGAIN] faults are retried up to 3 times with
    exponential backoff ([Cost_model.retry_backoff_ns], charged to
    simulated time and counted in [perf.swap_retries]); degradable
    failures ([EFAULT], exhausted retries) complete the request's objects
    through the byte-copy path instead ([perf.swap_fallbacks], a
    ["gc.swap_fallback"] trace instant).  Non-degradable [EINVAL]s mean
    the GC built a malformed request and re-raise loudly.  When
    [Config.fault_spec] is non-empty the mover's prologue arms the
    machine's injection plane with [Config.fault_seed]. *)

val mover : ?measure_core:int -> Config.t -> Svagc_gc.Compact.mover
(** [measure_core] routes the byte-copy fallback's traffic through the
    cache/TLB models; PTE-swapped moves touch no data lines, which is the
    Table III contrast. *)
