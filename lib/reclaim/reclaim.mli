(** Kernel-side memory-pressure engine: per-machine active/inactive LRU
    page lists, a kswapd-style watermark reclaimer, and the swap-out /
    fault-in mechanics over {!Swap_dev}.

    This module owns the {e policy and state}; the {e wiring} lives in
    [Svagc_kernel.Fault_handler], which wraps these operations in the
    closure record [Machine.reclaim_iface] and installs it on the machine
    so that the vmem layer (which cannot depend on this library) can
    notify page lifecycle events and demand-fault swapped pages back in.

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
    is the device's own (a slot's payload cell, a float returned through
    the device closures), the boxed cost accumulator, and trace events
    when tracing.  Each tenant's pages live in one page table, kept by
    asid while the tenant has tracked pages.

    Costs: every swap-device transfer attempt charges the cost model's
    [swap_out_ns]/[swap_in_ns] (or the [swap_cost] override) and every
    demand fault charges [major_fault_ns] into an internal accumulator,
    drained by the caller that triggered the work ({!drain_ns}) into the
    appropriate simulated clock.  Determinism: no wall clock, no RNG of
    its own — injected device errors come from the machine's fault plane
    ([swap:p=…] clauses). *)

type t

(** A pluggable swap device as a record of closures — the same dependency
    inversion as [Machine.reclaim_iface], one level up: the tiered
    far-memory device lives in [svagc_fleet], above this library.
    [d_out_ns] is the per-attempt cost of the {e next} swap-out, queried
    before the slot is allocated (a tiered device folds in the demotion
    its next allocation will trigger, without mutating anything);
    [d_in_ns ~slot] is the per-attempt cost of reading [slot] back (far
    slots are slower).  [d_tier_stats] is [(near_in_use, far_in_use)] for
    a tiered device, [None] for a flat one.

    Payloads move by ownership, never by copy: [d_write] keeps the buffer
    it is given (the caller drops its reference), [d_take] frees the slot
    and hands its buffer back, and [d_peek] is the one aliasing read — the
    device's own buffer, which the caller must not mutate. *)
type dev_iface = {
  d_alloc_slot : unit -> int;
  d_free_slot : int -> unit;
  d_write : slot:int -> bytes option -> unit;
  d_take : slot:int -> bytes option;
  d_peek : slot:int -> bytes option;
  d_allocated : slot:int -> bool;
  d_slots_in_use : unit -> int;
  d_out_ns : unit -> float;
  d_in_ns : slot:int -> float;
  d_tier_stats : unit -> (int * int) option;
}

(** Per-tenant resident-page accounting, likewise inverted (the state
    lives in [svagc_fleet]).  [cg_charge]/[cg_uncharge] fire when a page
    enters/leaves the reclaim tracking table; [cg_excess] is resident
    pages above the tenant's hard limit; [cg_prefer] marks tenants over
    their soft limit (preferred kswapd victims); [cg_any_over_soft] must
    be O(1) — it is consulted on every kswapd wake; [cg_stats] lists
    [(asid, resident, soft, hard)] in ascending-asid order. *)
type cgroup_iface = {
  cg_charge : asid:int -> unit;
  cg_uncharge : asid:int -> unit;
  cg_excess : asid:int -> int;
  cg_prefer : asid:int -> bool;
  cg_any_over_soft : unit -> bool;
  cg_stats : unit -> (int * int * int * int) list;
}

val create :
  Svagc_vmem.Machine.t ->
  limit_frames:int ->
  ?swap_cost_ns:float ->
  ?max_io_retries:int ->
  ?dev:dev_iface ->
  unit ->
  t
(** A reclaimer that keeps the machine's resident frame count at or below
    [limit_frames] (evicting down to a small hysteresis gap below it on
    each wake).  [swap_cost_ns] overrides both per-page device latencies;
    [max_io_retries] (default 3) bounds device attempts per transfer.
    [dev] replaces the default flat swap device (in which case the device
    owns all transfer costs and [swap_cost_ns] is ignored).
    @raise Invalid_argument if [limit_frames <= 0]. *)

val limit_frames : t -> int

val set_cgroup : t -> cgroup_iface option -> unit
(** Install (or remove) the per-tenant accounting plane.  Pages already
    tracked are charged to their tenants on installation. *)

val enforce_hard : t -> asid:int -> unit
(** Evict the tenant's coldest pages until it is back under its hard
    limit (no-op without a cgroup plane, or when already under).  Called
    by the fleet layer after tightening a tenant's limits; the mapping,
    faulting and adopt paths run the same enforcement automatically. *)

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
    with a bounded device retry — the slot's buffer becomes the new
    frame's, and a zero page stays lazily zero — and make the PTE present.
    No-op when the PTE is already present (a racing fault resolved it).
    @raise Svagc_fault.Kernel_error.Fault ([EIO_swap]) when every device
    attempt fails.
    @raise Svagc_vmem.Phys_mem.Out_of_frames when the frame pool is full,
    leaving the page swapped. *)

val balance : t -> unit
(** Run the watermark check / kswapd loop explicitly (tests). *)

(** {2 Observers (oracle-safe: never mutate)} *)

val slot_bytes : t -> slot:int -> bytes option
(** The slot's payload without faulting ([None] = zero page); the device's
    own buffer, so callers must not mutate it. *)

val slot_allocated : t -> slot:int -> bool

val slots_in_use : t -> int

val tier_stats : t -> (int * int) option
(** The device's [(near_in_use, far_in_use)]; [None] for a flat device. *)

val cgroup_stats : t -> (int * int * int * int) list
(** Per-tenant [(asid, resident, soft, hard)]; [[]] without a cgroup
    plane. *)

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
