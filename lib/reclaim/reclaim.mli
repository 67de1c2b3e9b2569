(** Kernel-side memory-pressure engine: per-machine active/inactive LRU
    page lists, a kswapd-style watermark reclaimer, and the swap-out /
    fault-in mechanics over a {!Swap_tier}, with an optional {!Cgroup}
    plane for per-tenant limits.  Both are called directly.

    {!attach} is the one constructor: it wraps these operations in the
    closure record [Machine.reclaim_iface] and installs it on the machine
    so that the vmem layer (which cannot depend on this library) can
    notify page lifecycle events and demand-fault swapped pages back in.
    A machine with no attachment (the default) is bit-identical to one
    that never heard of reclaim.

    Pages are tracked per virtual address [(asid, vpn)] — a PTE-level
    SwapVA that exchanges two {e present} entries moves frames between
    addresses without invalidating the tracking; mixed present/swapped
    exchanges are repaired by the post-GC {!adopt_space} resync.

    Tracking is a node arena of flat arrays, one int id per tracked page:
    [prev]/[next] link the active and inactive LRU lists (ids 0 and 1 are
    their sentinels), [tprev]/[tnext] link one ring per tenant (its
    sentinel found through an asid-indexed array), and the page's asid,
    vpn, referenced bit and list tag sit in parallel arrays.  A packed
    [(asid, vpn)] key finds a node through a {!Svagc_util.Addr_index};
    {!adopt_space} walks only its tenant's ring.  Freed ids are reused
    most recently freed first, and the arrays start at 64 entries and
    double.  Tracking a page, touching it, dropping it or scanning it
    allocates nothing once the arrays have grown: no record, option or
    closure per page.  What the eviction and fault paths still allocate
    is the device's own (its free-id and demotion-queue growth), the
    boxed cost accumulator, and trace events when tracing.  Each tenant's pages live in one page table, kept by
    asid while the tenant has tracked pages.

    Costs: every swap-device transfer attempt charges the device's
    per-attempt cost ({!Swap_tier.out_ns}/{!Swap_tier.in_ns}) and every
    demand fault charges [major_fault_ns] into an internal accumulator,
    drained by the caller that triggered the work ({!drain_ns}) into the
    appropriate simulated clock.  Determinism: no wall clock, no RNG of
    its own — injected device errors come from the machine's fault plane
    ([swap:p=…] clauses). *)

type t

val attach :
  Svagc_vmem.Machine.t ->
  limit_frames:int ->
  ?dev:Swap_tier.t ->
  ?cgroup:Cgroup.t ->
  unit ->
  t
(** Create a reclaimer and install it on [machine.reclaim], turning on
    memory pressure for every address space on that machine.  It keeps
    the machine's resident frame count at or below [limit_frames]
    (evicting down to a small hysteresis gap below it on each wake).
    Each transfer gets three device attempts before the swap-out skips
    the page or the fault surfaces [EIO_swap].
    [dev] is the swap device, made on [machine], which owns every
    transfer cost: the default is [Swap_tier.create machine ()], a tier
    whose near side has no bound.  [cgroup] is the per-tenant accounting
    plane, fixed for the reclaimer's life.  Attaching twice replaces the
    first reclaimer and orphans its swap slots.
    @raise Invalid_argument if [limit_frames <= 0]. *)

(** {2 Page lifecycle notifications} *)

val page_mapped : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> va:int -> unit
(** Track a freshly-present page (active list, referenced) and run the
    watermark check — mapping may have pushed residency over the limit.
    @raise Invalid_argument if [asid] or the page number is out of the
    packed key's range, or if the tenant's tracked pages live in another
    page table (likewise for {!adopt_space} and {!fault_in}). *)

val page_unmapped : t -> asid:int -> va:int -> pte:Svagc_vmem.Pte.value -> unit
(** Stop tracking [va]; a swapped [pte] releases its slot. *)

val page_touched : t -> asid:int -> va:int -> unit
(** Set the page's LRU referenced bit (no-op for untracked pages). *)

val adopt_space : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> unit
(** (Re)synchronize tracking with the page table: track every present
    page not yet tracked, drop tracked pages that are no longer present.
    Used both to adopt pre-attach mappings and to repair tracking after a
    compaction whose SwapVA requests mixed present and swapped entries. *)

(** {2 Demand paging} *)

val fault_in : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> va:int -> unit
(** The major-fault path: charge the fault, evict first if at the limit
    (so the incoming page cannot be chosen), take the slot's payload back
    with a bounded device retry — the slot's payload becomes the new
    frame's, and a zero page stays lazily zero — and make the PTE present.
    No-op when the PTE is already present (a racing fault resolved it).
    @raise Svagc_fault.Kernel_error.Fault ([EIO_swap]) when every device
    attempt fails.
    @raise Svagc_vmem.Phys_mem.Out_of_frames when the frame pool is full,
    leaving the page swapped. *)

val balance : t -> unit
(** Run the watermark check / kswapd loop explicitly (tests). *)

(** {2 Observers (oracle-safe: never mutate)} *)

val tracked_pages : t -> int
(** Pages currently on the LRU lists. *)

val lru_audit : t -> string list
(** Structural check of the tracking arena.  LRU lists: walking each
    list forward and backward from its sentinel visits [size] nodes,
    every node's list tag names the list it is on and it is the tracking
    table's node for its [(asid, vpn)], and the lists together hold
    exactly the tracked pages.  Tenant rings: each ring walks to its
    length both ways and holds only its tenant's tracked nodes, and the
    rings together hold every tracked page.  Walks are bounded by the
    sizes, so a broken ring cannot hang the audit.  Returns the
    violations found; [[]] when sound. *)

val drain_ns : t -> float
(** Return and reset the accumulated reclaim cost. *)
