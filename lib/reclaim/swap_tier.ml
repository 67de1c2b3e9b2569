open Svagc_vmem
module Vec = Svagc_util.Vec
module Tracer = Svagc_trace.Tracer

(* Which tier a virtual slot id sits in.  The payload itself lives in one
   array indexed by the id, so a demotion only re-tags the id: the
   reclaimer (and the swapped PTEs it writes) only ever see the id, and
   no payload moves. *)
let free = 0
let near = 1
let far = 2

(* A near tier of [unbounded] slots never fills, so it never demotes and
   keeps no demotion order. *)
let unbounded = max_int

let far_cost_factor = 4.0

type t = {
  machine : Machine.t;
  near_slots : int;
  near_out_ns : float;
  near_in_ns : float;
  far_out_ns : float;
  far_in_ns : float;
  mutable tier : int array;  (* virtual slot id -> free / near / far *)
  mutable payloads : Phys_mem.payload array;  (* by id *)
  mutable gens : int array;  (* bumped on every (re)allocation of an id *)
  free_ids : int Vec.t;  (* freed virtual ids, reused LIFO *)
  mutable high_water : int;
  mutable near_in_use : int;
  mutable far_in_use : int;
  (* Near-resident ids in allocation (= first-write) order, as a ring of
     (id, generation) pairs: pair [p] sits at [2p] and [2p + 1], the
     oldest at [cold_head].  Entries are invalidated lazily by generation
     mismatch, and dropped when the ring fills. *)
  mutable cold : int array;
  mutable cold_head : int;
  mutable cold_len : int;
}

let create machine ?(near_slots = unbounded) ?swap_cost_ns () =
  if near_slots <= 0 then
    invalid_arg "Swap_tier.create: near_slots must be positive";
  let cost = machine.Machine.cost in
  let near_out_ns, near_in_ns =
    match swap_cost_ns with
    | Some ns -> (ns, ns)
    | None -> (cost.Cost_model.swap_out_ns, cost.Cost_model.swap_in_ns)
  in
  {
    machine;
    near_slots;
    near_out_ns;
    near_in_ns;
    far_out_ns = near_out_ns *. far_cost_factor;
    far_in_ns = near_in_ns *. far_cost_factor;
    tier = Array.make 64 free;
    payloads = Array.make 64 Phys_mem.zero;
    gens = Array.make 64 0;
    free_ids = Vec.create ();
    high_water = 0;
    near_in_use = 0;
    far_in_use = 0;
    cold = (if near_slots = unbounded then [||] else Array.make 128 0);
    cold_head = 0;
    cold_len = 0;
  }

let near_in_use t = t.near_in_use

let far_in_use t = t.far_in_use

(* Counted from the virtual ids, not the tier counters, so the oracle's
   tier-conservation law (near + far = slots in use) can see a counter
   that drifted from the ids. *)
let slots_in_use t = t.high_water - Vec.length t.free_ids

let stats t = (t.near_in_use, t.far_in_use)

let allocated t ~slot =
  slot >= 0 && slot < Array.length t.tier && t.tier.(slot) <> free

(* The tier of a live id; [what] names the caller in the error. *)
let tier_of t vid what =
  if not (allocated t ~slot:vid) then
    invalid_arg ("Swap_tier." ^ what ^ ": slot not allocated");
  t.tier.(vid)

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_capacity t n =
  let len = Array.length t.tier in
  if n >= len then begin
    let len' = Stdlib.max (2 * len) (n + 1) in
    t.tier <- grow t.tier len' free;
    t.payloads <- grow t.payloads len' Phys_mem.zero;
    t.gens <- grow t.gens len' 0
  end

(* Is a cold-ring entry still a near-resident slot?  A stale entry never
   becomes live again: reallocating its id bumps the generation. *)
let cold_live t vid gen = gen = t.gens.(vid) && t.tier.(vid) = near

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

(* Re-tag the coldest near slot as far; its payload stays where it is.
   The cold queue can hold ids whose near residency already ended
   (faulted back in and freed); those are skipped by generation check.
   Callers only demote when the near tier is non-empty, so a live entry
   exists. *)
let rec demote_coldest t =
  if t.cold_len = 0 then
    invalid_arg "Swap_tier: near tier full but cold queue empty";
  let p = t.cold_head in
  let vid = t.cold.(2 * p) and gen = t.cold.((2 * p) + 1) in
  t.cold_head <- (p + 1) land ((Array.length t.cold / 2) - 1);
  t.cold_len <- t.cold_len - 1;
  if not (cold_live t vid gen) then demote_coldest t
  else begin
    t.tier.(vid) <- far;
    t.near_in_use <- t.near_in_use - 1;
    t.far_in_use <- t.far_in_use + 1;
    Perf.bump t.machine.Machine.perf Tier_demotions 1;
    if Tracer.tracing () then
      Tracer.instant ~cat:"fleet"
        ~args:
          [
            ("slot", Svagc_trace.Event.Int vid);
            ("far_in_use", Svagc_trace.Event.Int t.far_in_use);
          ]
        "tier.demote"
  end

let alloc_slot t =
  (* A full near tier demotes its coldest slot before accepting the new
     page — freshly evicted pages are the warmest thing on the device. *)
  if t.near_in_use >= t.near_slots then demote_coldest t;
  let vid =
    if Vec.is_empty t.free_ids then begin
      let vid = t.high_water in
      t.high_water <- t.high_water + 1;
      vid
    end
    else Vec.pop_last t.free_ids
  in
  ensure_capacity t vid;
  t.tier.(vid) <- near;
  t.near_in_use <- t.near_in_use + 1;
  t.gens.(vid) <- t.gens.(vid) + 1;
  if t.near_slots <> unbounded then cold_push t vid t.gens.(vid);
  vid

let free_slot t vid =
  if tier_of t vid "free_slot" = far then t.far_in_use <- t.far_in_use - 1
  else t.near_in_use <- t.near_in_use - 1;
  t.tier.(vid) <- free;
  t.payloads.(vid) <- Phys_mem.zero;
  Vec.push t.free_ids vid

let write t ~slot:vid payload =
  ignore (tier_of t vid "write");
  t.payloads.(vid) <- payload

let peek t ~slot:vid =
  ignore (tier_of t vid "peek");
  t.payloads.(vid)

(* Taking a far slot is the fault path from the slow tier: the payload
   comes back at far latency (the fault's [in_ns] already charged it) and
   the slot is freed, so the page re-enters DRAM. *)
let take t ~slot:vid =
  if tier_of t vid "take" = far then begin
    Perf.bump t.machine.Machine.perf Tier_promotions 1;
    if Tracer.tracing () then
      Tracer.instant ~cat:"fleet"
        ~args:[ ("slot", Svagc_trace.Event.Int vid) ]
        "tier.promote"
  end;
  let payload = t.payloads.(vid) in
  free_slot t vid;
  payload

let out_ns t =
  if t.near_in_use >= t.near_slots then t.far_out_ns +. t.near_out_ns
  else t.near_out_ns

let in_ns t ~slot:vid =
  if allocated t ~slot:vid && t.tier.(vid) = far then t.far_in_ns
  else t.near_in_ns
