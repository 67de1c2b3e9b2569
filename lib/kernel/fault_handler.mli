(** Demand-paging wiring: builds a {!Svagc_reclaim.Reclaim.t} for a
    machine and installs it as the machine's [reclaim_iface], turning on
    memory pressure for every address space on that machine.

    An attached machine keeps at most [limit_frames] frames resident:
    mapping or faulting past the limit wakes the kswapd loop, which
    evicts cold pages to the simulated swap device; any frame-resolving
    access to an evicted page takes a charged major fault back through
    {!Svagc_reclaim.Reclaim.fault_in}.  A machine with no attachment (the
    default) is bit-identical to one that never heard of reclaim. *)

val attach :
  Svagc_vmem.Machine.t ->
  limit_frames:int ->
  ?max_io_retries:int ->
  ?dev:Svagc_reclaim.Swap_tier.t ->
  ?cgroup:Svagc_reclaim.Cgroup.t ->
  unit ->
  Svagc_reclaim.Reclaim.t
(** Create the reclaim state and install the closure record on
    [machine.reclaim].  Idempotent in spirit but not in state: attaching
    twice replaces the first reclaimer, orphaning its swap slots — use
    {!attached} to guard.  [max_io_retries] (default 3) bounds device
    attempts per transfer before the swap-out skips the page / the fault
    surfaces [EIO_swap].  [dev] is the swap device, made on [machine]:
    the default is a tier with an unbounded near side at the cost model's
    latencies, and [Swap_tier.create ~swap_cost_ns] overrides them, while
    [~near_slots] bounds the near tier (the fleet's far-memory device).
    [cgroup] installs per-tenant resident accounting.
    @raise Invalid_argument if [limit_frames <= 0]. *)

val attached : Svagc_vmem.Machine.t -> bool

val detach : Svagc_vmem.Machine.t -> unit
(** Remove the iface (pressure off; swapped pages become unreachable
    until re-attach, so this is for tests and teardown only). *)
