(** The simulated multi-core machine: physical frames, per-core TLBs, a
    shared last-level cache model, perf counters and the cost model.

    A machine hosts one or more processes ({!Address_space}s); the paper's
    multi-JVM experiments run several processes on one machine so they share
    copy bandwidth.  The machine keeps no contention state: every copy's
    caller passes its stream count ([Memmove.cost_ns ~streams]). *)

type core = {
  core_id : int;
  tlb : Tlb.t;
}

(** The machine's memory-pressure plane as a record of closures.  The
    reclaim state (swap device, LRU lists, watermarks) lives in
    [svagc_reclaim], which sits above this library, so — like the fault
    injector and the shadow-oracle hooks — the wiring is inverted:
    [Reclaim.attach] builds these closures and installs them in
    {!t.reclaim}.  [None] (the default) means no memory limit and keeps
    unlimited runs bit-identical. *)
type reclaim_iface = {
  ri_page_mapped : pt:Page_table.t -> asid:int -> va:int -> unit;
      (** A page just became present at [va] (fresh mapping). *)
  ri_page_unmapped : asid:int -> va:int -> pte:Pte.value -> unit;
      (** The PTE at [va] (present or swapped — passed so a swapped page's
          slot can be released) is being destroyed. *)
  ri_page_touched : asid:int -> va:int -> unit;
      (** A present page was accessed (sets the LRU referenced bit). *)
  ri_fault_in : pt:Page_table.t -> asid:int -> va:int -> unit;
      (** Demand fault: the PTE at [va] is swapped; bring it back in
          (charging the major-fault and swap-in costs, possibly evicting
          other pages first).  Postcondition: the PTE is present.
          @raise Svagc_fault.Kernel_error.Fault on an exhausted
          swap-device error retry budget ([EIO_swap]). *)
  ri_adopt : pt:Page_table.t -> asid:int -> unit;
      (** (Re)synchronize LRU tracking with the page table — adopt
          pre-attach mappings, repair tracking after a compaction whose
          SwapVA requests mixed present and swapped entries. *)
  ri_slot_payload : slot:int -> Phys_mem.payload;
      (** Peek at a swap slot's payload without faulting anything in. *)
  ri_slot_allocated : slot:int -> bool;
  ri_slots_in_use : unit -> int;
  ri_drain_ns : unit -> float;
      (** Return and clear the reclaim cost accumulated since the last
          drain (swap-device IO, fault handling, kswapd scans).  Callers
          fold it into whichever clock triggered the work. *)
  ri_cgroup_stats : unit -> (int * int * int * int) list;
      (** Per-tenant [(asid, resident_pages, soft_limit, hard_limit)] in
          ascending-asid order when a cgroup plane is installed on the
          reclaimer; [[]] otherwise.  Observer for the shadow oracle's
          cgroup conservation laws. *)
  ri_tier_stats : unit -> int * int;
      (** The swap device's [(near_slots_in_use, far_slots_in_use)]. *)
  ri_lru_audit : unit -> string list;
      (** Structural check of the reclaimer's page tracking (its LRU lists
          and per-tenant rings); [[]] when sound.  Observer for the shadow
          oracle's [reclaim-lru] law. *)
}

type t = {
  cost : Cost_model.t;
  ncores : int;
  cores : core array;
  phys : Phys_mem.t;
  perf : Perf.t;
  llc : Cache_sim.t;
  mutable next_asid : int;
  mutable fault : Svagc_fault.Injector.t option;
      (** The machine's fault-injection plane; [None] (the default) and an
          injector with an all-zero-rate spec are observationally
          bit-identical.  Installed by the GC from [Config.fault_spec] /
          [Config.fault_seed]. *)
  mutable reclaim : reclaim_iface option;
      (** The memory-pressure plane; [None] (the default) means unlimited
          physical memory.  Installed by [Reclaim.attach]. *)
  mutable memo : charge_memo option;
      (** Lazily-built charge memo of the main domain; use
          {!charge_memo}. *)
}

(** The flat SwapVA engine's direct-mapped memo for the bulk
    steady-state PTE charge.  The key is (exact accumulated-cost float,
    page count, cached flag) and the stored value is the exact float the
    reference loop produced for that key, so hits are bit-identical by
    construction — the memo only skips re-running a pure deterministic
    serial float chain. *)
and charge_memo = {
  memo_acc : float array;
  memo_enc : int array;  (** [(pages lsl 1) lor cached]; 0 = empty slot *)
  memo_out : float array;
}

val memo_slots : int
(** Direct-mapped memo size (power of two). *)

val charge_memo : t -> charge_memo
(** The machine's charge memo, created on first use.  SwapVA runs only on
    the main domain (no pool task calls it), so one memo per machine is
    race-free, and the main-domain guard keeps it so.
    @raise Invalid_argument when called from any domain but the main
    one. *)

val create : ?ncores:int -> ?phys_mib:int -> Cost_model.t -> t
(** [ncores] defaults to the preset's core count; [phys_mib] defaults to
    512 MiB of simulated frames (frames are lazily materialized). *)

val core : t -> int -> core

val fresh_asid : t -> int

val ipi_broadcast_cost : ?scale:float -> t -> from_core:int -> float
(** Cost charged to the initiating core for IPI-ing every other online core
    (counts the IPIs and the broadcast in perf, and, when tracing, records
    one ["ipi"] instant on every remote core's track).  When there is at
    least one remote core and a firing [ipi] fault clause loses a
    message, the initiator detects the missing ack and resends once:
    [perf.ipis_lost] and [perf.ipis_sent] are bumped, an ["ipi.lost"]
    instant is traced on the victim core and the extra
    [ipi_ns +. ipi_ack_ns] round is added.  Lost IPIs never surface as
    errors — see [Kernel_error.EIPI_lost].  [scale] (default 1.0)
    discounts the broadcast term only — the kernel's process-targeted
    shootdown acks at 60% of a full round trip — never the lost-IPI
    resend penalty.  This is the single costed
    IPI-broadcast helper; every shootdown flavor must route through it so
    counters cannot drift from costs. *)

val flush_asid_everywhere : t -> asid:int -> unit
(** Invalidate the process's entries in every core's TLB: one
    [Tlb.flush_asid] per core and nothing else — no perf counter, no
    cost, no hook.  Allocates nothing. *)

val flush_page_everywhere : t -> asid:int -> vpn:int -> unit
(** The same for one page: one [Tlb.flush_page] per core. *)

val flush_tlb_all_cores : t -> asid:int -> from_core:int -> float
(** The paper's [flush_tlb_all_cores(pid)]: invalidates the process's
    entries in every core's TLB and returns the initiator-side cost
    (local flush + one IPI per remote core).  Counts one
    [perf.tlb_flush_local] event per core flushed plus one
    [perf.tlb_flush_all] event, and fires {!shootdown_hook}. *)

(** {2 Shadow-oracle observation hooks}

    Installed by [svagc_check] while check mode is enabled; [None]
    otherwise.  The vmem layer cannot depend on the checker, so the wiring
    is inverted through these refs. *)

val created_hook : (t -> unit) option ref
(** Fired at the end of {!create} with the new machine. *)

val shootdown_hook : (t -> asid:int -> unit) option ref
(** Fired after a completed shootdown (every core's TLB already
    invalidated for [asid]) by {!flush_tlb_all_cores} and by the kernel's
    [Shootdown.flush_after_swap]. *)

val notify_shootdown : t -> asid:int -> unit
(** Invoke {!shootdown_hook} if installed (kernel-side entry point). *)
