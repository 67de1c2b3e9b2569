(** Two-tier swap device: a bounded "near" tier (local NVMe, the cost
    model's swap latencies) in front of an unbounded "far" tier (remote
    far memory, [far_cost_mult] times slower), behind the
    {!Svagc_reclaim.Reclaim.dev_iface} seam.

    Slot ids handed to the reclaimer (and encoded into swapped PTEs) are
    {e virtual}: an id's payload can migrate between the backing devices
    without any page-table fixup.  Placement policy:

    - swap-out always lands in the near tier (freshly evicted pages are
      the warmest thing on the device);
    - when the near tier is full, its {e coldest} slot — oldest
      allocation still near-resident — is demoted to the far tier first
      ([tier_demotions], cost [far_out_ns] folded into the swap-out);
    - a demand fault that reads a far slot is a promotion
      ([tier_promotions]): the payload returns at far latency and the
      slot is freed by the reclaimer, so the page re-enters DRAM.

    Deterministic: demotion order is allocation order, no randomness, no
    wall clock.

    Representation, all unboxed: an id's location is one int ([2n] for
    near slot [n], [2n + 1] for far slot [n], [-1] while free), freed ids
    are reused most recently freed first, and the demotion queue is a
    ring of (id, generation) int pairs — an id freed and reallocated gets
    a new generation, so its stale queue entry is skipped lazily. *)

type t

val create :
  Svagc_vmem.Machine.t -> near_slots:int -> ?far_cost_mult:float -> unit -> t
(** [near_slots] bounds the near tier; [far_cost_mult] (default 4.0)
    scales both far-tier latencies from the machine's cost model.
    Demotion/promotion counters are bumped on [machine]'s perf.
    @raise Invalid_argument if [near_slots <= 0] or [far_cost_mult < 1]. *)

val iface : t -> Svagc_reclaim.Reclaim.dev_iface
(** The device as a reclaimer-pluggable closure record. *)

val near_slots : t -> int
(** Capacity of the near tier, as configured. *)

val near_in_use : t -> int
(** Allocated slots whose payload currently lives in the near tier. *)

val far_in_use : t -> int
(** Allocated slots whose payload has been demoted to the far tier. *)

val slots_in_use : t -> int
(** [near_in_use + far_in_use]: all live virtual slot ids. *)

val stats : t -> int * int
(** [(near_in_use, far_in_use)]. *)

val allocated : t -> slot:int -> bool
(** Is [slot] a live virtual id (on either tier)? *)

val peek : t -> slot:int -> bytes option
(** The slot's payload without promotion side effects (oracle path). *)
