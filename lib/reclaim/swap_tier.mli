(** The reclaimer's swap device: a "near" tier (local NVMe, the cost
    model's swap latencies) in front of an unbounded "far" tier (remote
    far memory, {!far_cost_factor} times slower).  {!Reclaim} calls it
    directly; its default device is a tier whose near side has no bound,
    which never demotes and so behaves as one flat device.

    Slot ids handed to the reclaimer (and encoded into swapped PTEs) are
    {e virtual}: an id changes tier without any page-table fixup.
    Placement policy:

    - swap-out always lands in the near tier (freshly evicted pages are
      the warmest thing on the device);
    - when a bounded near tier is full, its {e coldest} slot — oldest
      allocation still near-resident — is demoted to the far tier first
      ([tier_demotions], cost [far_out_ns] folded into the swap-out);
    - a demand fault that reads a far slot counts as a promotion
      ([tier_promotions]): the payload returns at far latency, the slot is
      freed, and the page re-enters DRAM.  Nothing moves into the near
      tier and nothing is demoted to make room.

    Deterministic: demotion order is allocation order, no randomness, no
    wall clock.

    Payloads move by ownership, never by copy: {!write} keeps the payload
    it is given (the caller drops its reference), {!take} frees the slot
    and hands its payload back, and {!peek} is the one aliasing read — the
    device's own payload, which the caller must not install anywhere.

    Representation: one payload array indexed by virtual id, and beside
    it one int tag per id (free, near or far), so a demotion re-tags the
    id and moves no payload; [near_in_use] and [far_in_use] are two
    counters.  Freed ids are reused most recently freed first, and a
    bounded tier's demotion queue is a ring of (id, generation) int pairs
    — an id freed and reallocated gets a new generation, so its stale
    queue entry is skipped.  A full ring drops its stale entries before
    it grows, so it stays within a constant factor of the near slots in
    use. *)

type t

val far_cost_factor : float
(** The far tier's latencies over the near tier's: 4.0. *)

val create :
  Svagc_vmem.Machine.t -> ?near_slots:int -> ?swap_cost_ns:float -> unit -> t
(** [near_slots] bounds the near tier (default: no bound); near-tier
    latencies are the machine's [swap_out_ns]/[swap_in_ns], or
    [swap_cost_ns] for both when given; {!far_cost_factor} scales both
    into the far tier's.  Demotion/promotion counters are bumped on
    [machine]'s perf.
    @raise Invalid_argument if [near_slots <= 0]. *)

(** {2 The device} *)

val alloc_slot : t -> int
(** A virtual id in the near tier, holding {!Svagc_vmem.Phys_mem.zero}
    until {!write}:
    the most recently freed id, or else the next never-used one, so ids
    are deterministic and stay small.  A full bounded near tier demotes
    its coldest slot first. *)

val write : t -> slot:int -> Svagc_vmem.Phys_mem.payload -> unit
(** Store a payload by ownership.
    @raise Invalid_argument if the slot is not allocated (likewise for
    {!take}, {!free_slot} and {!peek}). *)

val take : t -> slot:int -> Svagc_vmem.Phys_mem.payload
(** Free the slot and hand its payload back; a far slot counts a
    promotion. *)

val free_slot : t -> int -> unit

val peek : t -> slot:int -> Svagc_vmem.Phys_mem.payload
(** The slot's payload without side effects (oracle path). *)

val out_ns : t -> float
(** Per-attempt cost of the {e next} swap-out, folding in the demotion its
    allocation will trigger; queried before the slot is allocated. *)

val in_ns : t -> slot:int -> float
(** Per-attempt cost of reading [slot] back (far slots are slower). *)

(** {2 Observers} *)

val allocated : t -> slot:int -> bool
(** Is [slot] a live virtual id (on either tier)? *)

val near_in_use : t -> int
(** Allocated slots in the near tier. *)

val far_in_use : t -> int
(** Allocated slots demoted to the far tier. *)

val slots_in_use : t -> int
(** Live virtual slot ids, counted from the ids; equals
    [near_in_use + far_in_use] unless a tier counter drifted. *)

val stats : t -> int * int
(** [(near_in_use, far_in_use)]. *)
