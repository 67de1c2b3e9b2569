open Svagc_vmem
module Swap_dev = Svagc_reclaim.Swap_dev
module Vec = Svagc_util.Vec
module Tracer = Svagc_trace.Tracer

(* Where a virtual slot's payload currently lives.  The reclaimer (and the
   swapped PTEs it writes) only ever see the virtual id, so a demotion can
   move the payload between backing devices without touching a single
   page table. *)
type loc =
  | Near of int
  | Far of int
  | Free

type t = {
  machine : Machine.t;
  near : Swap_dev.t;
  far : Swap_dev.t;
  near_slots : int;
  near_out_ns : float;
  near_in_ns : float;
  far_out_ns : float;
  far_in_ns : float;
  mutable locs : loc array;  (* virtual slot id -> location *)
  mutable gens : int array;  (* bumped on every (re)allocation of an id *)
  free : int Vec.t;  (* freed virtual ids, reused LIFO *)
  mutable high_water : int;
  (* Near-resident ids in allocation (= first-write) order; head = coldest.
     Entries are invalidated lazily by generation mismatch. *)
  cold : (int * int) Queue.t;
}

let create machine ~near_slots ?(far_cost_mult = 4.0) () =
  if near_slots <= 0 then
    invalid_arg "Swap_tier.create: near_slots must be positive";
  if far_cost_mult < 1.0 then
    invalid_arg "Swap_tier.create: far_cost_mult must be >= 1.0";
  let cost = machine.Machine.cost in
  let near_out_ns = cost.Cost_model.swap_out_ns in
  let near_in_ns = cost.Cost_model.swap_in_ns in
  {
    machine;
    near = Swap_dev.create ();
    far = Swap_dev.create ();
    near_slots;
    near_out_ns;
    near_in_ns;
    far_out_ns = near_out_ns *. far_cost_mult;
    far_in_ns = near_in_ns *. far_cost_mult;
    locs = Array.make 64 Free;
    gens = Array.make 64 0;
    free = Vec.create ();
    high_water = 0;
    cold = Queue.create ();
  }

let near_slots t = t.near_slots

let near_in_use t = Swap_dev.slots_in_use t.near

let far_in_use t = Swap_dev.slots_in_use t.far

let slots_in_use t = near_in_use t + far_in_use t

let stats t = (near_in_use t, far_in_use t)

let allocated t ~slot =
  slot >= 0 && slot < Array.length t.locs && t.locs.(slot) <> Free

let ensure_capacity t n =
  let len = Array.length t.locs in
  if n >= len then begin
    let len' = Stdlib.max (2 * len) (n + 1) in
    let locs' = Array.make len' Free in
    Array.blit t.locs 0 locs' 0 len;
    t.locs <- locs';
    let gens' = Array.make len' 0 in
    Array.blit t.gens 0 gens' 0 len;
    t.gens <- gens'
  end

(* Move the coldest near slot's payload to the far device.  The cold
   queue can hold ids whose near residency already ended (faulted back
   in and freed); those are skipped by generation check.  Callers only
   demote when the near device is non-empty, so a live entry exists. *)
let rec demote_coldest t =
  match Queue.pop t.cold with
  | exception Queue.Empty ->
    invalid_arg "Swap_tier: near tier full but cold queue empty"
  | vid, gen ->
    if gen <> t.gens.(vid) then demote_coldest t
    else begin
      match t.locs.(vid) with
      | Near nslot ->
        let payload = Swap_dev.read t.near ~slot:nslot in
        Swap_dev.free_slot t.near nslot;
        let fslot = Swap_dev.alloc_slot t.far in
        Swap_dev.write t.far ~slot:fslot payload;
        t.locs.(vid) <- Far fslot;
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
      | Far _ | Free -> demote_coldest t
    end

let alloc_slot t =
  (* A full near tier demotes its coldest slot before accepting the new
     page — freshly evicted pages are the warmest thing on the device. *)
  if near_in_use t >= t.near_slots then demote_coldest t;
  let vid =
    match Vec.pop t.free with
    | Some vid -> vid
    | None ->
      let vid = t.high_water in
      t.high_water <- t.high_water + 1;
      vid
  in
  ensure_capacity t vid;
  let nslot = Swap_dev.alloc_slot t.near in
  t.locs.(vid) <- Near nslot;
  t.gens.(vid) <- t.gens.(vid) + 1;
  Queue.push (vid, t.gens.(vid)) t.cold;
  vid

let free_slot t vid =
  match t.locs.(vid) with
  | Near nslot ->
    Swap_dev.free_slot t.near nslot;
    t.locs.(vid) <- Free;
    Vec.push t.free vid
  | Far fslot ->
    Swap_dev.free_slot t.far fslot;
    t.locs.(vid) <- Free;
    Vec.push t.free vid
  | Free -> invalid_arg "Swap_tier.free_slot: slot not allocated"

let write t ~slot:vid payload =
  match t.locs.(vid) with
  | Near nslot -> Swap_dev.write t.near ~slot:nslot payload
  | Far fslot -> Swap_dev.write t.far ~slot:fslot payload
  | Free -> invalid_arg "Swap_tier.write: slot not allocated"

(* A read of a far slot is the promote-on-fault path: the payload comes
   back over the slow tier (the fault's [d_in_ns] already charged the far
   latency) and the slot is then freed by the reclaimer as usual, so the
   page re-enters DRAM. *)
let read t ~slot:vid =
  match t.locs.(vid) with
  | Near nslot -> Swap_dev.read t.near ~slot:nslot
  | Far fslot ->
    let perf = t.machine.Machine.perf in
    Perf.bump perf Tier_promotions 1;
    if Tracer.tracing () then
      Tracer.instant ~cat:"fleet"
        ~args:[ ("slot", Svagc_trace.Event.Int vid) ]
        "tier.promote";
    Swap_dev.read t.far ~slot:fslot
  | Free -> invalid_arg "Swap_tier.read: slot not allocated"

let peek t ~slot:vid =
  match t.locs.(vid) with
  | Near nslot -> Swap_dev.peek t.near ~slot:nslot
  | Far fslot -> Swap_dev.peek t.far ~slot:fslot
  | Free -> invalid_arg "Swap_tier.peek: slot not allocated"

let out_ns t =
  if near_in_use t >= t.near_slots then t.far_out_ns +. t.near_out_ns
  else t.near_out_ns

let in_ns t ~slot:vid =
  match t.locs.(vid) with
  | Far _ -> t.far_in_ns
  | Near _ | Free -> t.near_in_ns

let iface t =
  {
    Svagc_reclaim.Reclaim.d_alloc_slot = (fun () -> alloc_slot t);
    d_free_slot = (fun slot -> free_slot t slot);
    d_write = (fun ~slot b -> write t ~slot b);
    d_read = (fun ~slot -> read t ~slot);
    d_peek = (fun ~slot -> peek t ~slot);
    d_allocated = (fun ~slot -> allocated t ~slot);
    d_slots_in_use = (fun () -> slots_in_use t);
    d_out_ns = (fun () -> out_ns t);
    d_in_ns = (fun ~slot -> in_ns t ~slot);
    d_tier_stats = (fun () -> Some (stats t));
  }
