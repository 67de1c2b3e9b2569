open Svagc_vmem
module Vec = Svagc_util.Vec
module Tracer = Svagc_trace.Tracer

(* Where a virtual slot's payload currently lives, as one int: [2n] is
   near slot [n], [2n + 1] far slot [n], and [free_loc] marks an
   unallocated id.  The reclaimer (and the swapped PTEs it writes) only
   ever see the virtual id, so a demotion can move the payload between
   backing devices without touching a single page table. *)
let free_loc = -1

let is_far loc = loc land 1 = 1

(* A near tier of [unbounded] slots never fills, so it never demotes and
   keeps no demotion order. *)
let unbounded = max_int

type t = {
  machine : Machine.t;
  near : Swap_dev.t;
  far : Swap_dev.t;
  near_slots : int;
  near_out_ns : float;
  near_in_ns : float;
  far_out_ns : float;
  far_in_ns : float;
  mutable locs : int array;  (* virtual slot id -> location *)
  mutable gens : int array;  (* bumped on every (re)allocation of an id *)
  free : int Vec.t;  (* freed virtual ids, reused LIFO *)
  mutable high_water : int;
  (* Near-resident ids in allocation (= first-write) order, as a ring of
     (id, generation) pairs: pair [p] sits at [2p] and [2p + 1], the
     oldest at [cold_head].  Entries are invalidated lazily by generation
     mismatch, and dropped when the ring fills. *)
  mutable cold : int array;
  mutable cold_head : int;
  mutable cold_len : int;
}

let create machine ?(near_slots = unbounded) ?(far_cost_mult = 4.0)
    ?swap_cost_ns () =
  if near_slots <= 0 then
    invalid_arg "Swap_tier.create: near_slots must be positive";
  if far_cost_mult < 1.0 then
    invalid_arg "Swap_tier.create: far_cost_mult must be >= 1.0";
  let cost = machine.Machine.cost in
  let near_out_ns, near_in_ns =
    match swap_cost_ns with
    | Some ns -> (ns, ns)
    | None -> (cost.Cost_model.swap_out_ns, cost.Cost_model.swap_in_ns)
  in
  {
    machine;
    near = Swap_dev.create ();
    far = Swap_dev.create ();
    near_slots;
    near_out_ns;
    near_in_ns;
    far_out_ns = near_out_ns *. far_cost_mult;
    far_in_ns = near_in_ns *. far_cost_mult;
    locs = Array.make 64 free_loc;
    gens = Array.make 64 0;
    free = Vec.create ();
    high_water = 0;
    cold = (if near_slots = unbounded then [||] else Array.make 128 0);
    cold_head = 0;
    cold_len = 0;
  }

let near_in_use t = Swap_dev.slots_in_use t.near

let far_in_use t = Swap_dev.slots_in_use t.far

(* Counted from the virtual ids, not the backing devices, so the oracle's
   tier-conservation law (near + far = slots in use) can see a backing
   slot that outlived its id. *)
let slots_in_use t = t.high_water - Vec.length t.free

let stats t = (near_in_use t, far_in_use t)

let allocated t ~slot =
  slot >= 0 && slot < Array.length t.locs && t.locs.(slot) <> free_loc

(* The location of a live id; [what] names the caller in the error. *)
let loc_of t vid what =
  if not (allocated t ~slot:vid) then
    invalid_arg ("Swap_tier." ^ what ^ ": slot not allocated");
  t.locs.(vid)

let ensure_capacity t n =
  let len = Array.length t.locs in
  if n >= len then begin
    let len' = Stdlib.max (2 * len) (n + 1) in
    let locs' = Array.make len' free_loc in
    Array.blit t.locs 0 locs' 0 len;
    t.locs <- locs';
    let gens' = Array.make len' 0 in
    Array.blit t.gens 0 gens' 0 len;
    t.gens <- gens'
  end

(* Is a cold-ring entry still a near-resident slot?  A stale entry never
   becomes live again: reallocating its id bumps the generation. *)
let cold_live t vid gen =
  let loc = t.locs.(vid) in
  gen = t.gens.(vid) && loc <> free_loc && not (is_far loc)

(* The ring's pair capacity is a power of two, so positions wrap by mask.
   A full ring first drops its stale entries in place, keeping the live
   ones in order, and grows only when more than half of it is live — so
   it stays within a constant factor of the near slots in use. *)
let cold_push t vid gen =
  let cold = t.cold in
  let mask = (Array.length cold / 2) - 1 in
  if t.cold_len > mask then begin
    let kept = ref 0 in
    for i = 0 to t.cold_len - 1 do
      let p = (t.cold_head + i) land mask in
      let v = cold.(2 * p) and g = cold.((2 * p) + 1) in
      if cold_live t v g then begin
        let q = (t.cold_head + !kept) land mask in
        cold.(2 * q) <- v;
        cold.((2 * q) + 1) <- g;
        incr kept
      end
    done;
    t.cold_len <- !kept;
    if 2 * !kept > mask + 1 then begin
      let grown = Array.make (2 * Array.length cold) 0 in
      for i = 0 to t.cold_len - 1 do
        let p = (t.cold_head + i) land mask in
        grown.(2 * i) <- cold.(2 * p);
        grown.((2 * i) + 1) <- cold.((2 * p) + 1)
      done;
      t.cold <- grown;
      t.cold_head <- 0
    end
  end;
  let p = (t.cold_head + t.cold_len) land ((Array.length t.cold / 2) - 1) in
  t.cold.(2 * p) <- vid;
  t.cold.((2 * p) + 1) <- gen;
  t.cold_len <- t.cold_len + 1

(* Move the coldest near slot's payload to the far device.  The cold
   queue can hold ids whose near residency already ended (faulted back
   in and freed); those are skipped by generation check.  Callers only
   demote when the near device is non-empty, so a live entry exists. *)
let rec demote_coldest t =
  if t.cold_len = 0 then
    invalid_arg "Swap_tier: near tier full but cold queue empty";
  let p = t.cold_head in
  let vid = t.cold.(2 * p) and gen = t.cold.((2 * p) + 1) in
  t.cold_head <- (p + 1) land ((Array.length t.cold / 2) - 1);
  t.cold_len <- t.cold_len - 1;
  if not (cold_live t vid gen) then demote_coldest t
  else begin
    let payload = Swap_dev.take t.near ~slot:(t.locs.(vid) lsr 1) in
    let fslot = Swap_dev.alloc_slot t.far in
    Swap_dev.write t.far ~slot:fslot payload;
    t.locs.(vid) <- (2 * fslot) + 1;
    let perf = t.machine.Machine.perf in
    Perf.bump perf Tier_demotions 1;
    if Tracer.tracing () then
      Tracer.instant ~cat:"fleet"
        ~args:
          [
            ("slot", Svagc_trace.Event.Int vid);
            ("far_in_use", Svagc_trace.Event.Int (far_in_use t));
          ]
        "tier.demote"
  end

let alloc_slot t =
  (* A full near tier demotes its coldest slot before accepting the new
     page — freshly evicted pages are the warmest thing on the device. *)
  if near_in_use t >= t.near_slots then demote_coldest t;
  let vid =
    if Vec.is_empty t.free then begin
      let vid = t.high_water in
      t.high_water <- t.high_water + 1;
      vid
    end
    else Vec.pop_last t.free
  in
  ensure_capacity t vid;
  let nslot = Swap_dev.alloc_slot t.near in
  t.locs.(vid) <- 2 * nslot;
  t.gens.(vid) <- t.gens.(vid) + 1;
  if t.near_slots <> unbounded then cold_push t vid t.gens.(vid);
  vid

(* The device a location names, and the slot on it. *)
let dev_of t loc = if is_far loc then t.far else t.near

let free_slot t vid =
  let loc = loc_of t vid "free_slot" in
  Swap_dev.free_slot (dev_of t loc) (loc lsr 1);
  t.locs.(vid) <- free_loc;
  Vec.push t.free vid

let write t ~slot:vid payload =
  let loc = loc_of t vid "write" in
  Swap_dev.write (dev_of t loc) ~slot:(loc lsr 1) payload

let peek t ~slot:vid =
  let loc = loc_of t vid "peek" in
  Swap_dev.peek (dev_of t loc) ~slot:(loc lsr 1)

(* Taking a far slot is the fault path from the slow tier: the payload
   comes back at far latency (the fault's [in_ns] already charged it) and
   the slot is freed, so the page re-enters DRAM. *)
let take t ~slot:vid =
  if is_far (loc_of t vid "take") then begin
    let perf = t.machine.Machine.perf in
    Perf.bump perf Tier_promotions 1;
    if Tracer.tracing () then
      Tracer.instant ~cat:"fleet"
        ~args:[ ("slot", Svagc_trace.Event.Int vid) ]
        "tier.promote"
  end;
  let payload = peek t ~slot:vid in
  free_slot t vid;
  payload

let out_ns t =
  if near_in_use t >= t.near_slots then t.far_out_ns +. t.near_out_ns
  else t.near_out_ns

let in_ns t ~slot:vid =
  if allocated t ~slot:vid && is_far t.locs.(vid) then t.far_in_ns
  else t.near_in_ns
