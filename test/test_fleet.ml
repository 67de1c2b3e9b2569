(* Tests for svagc_fleet and the reclaimer's fleet-facing parts
   (Swap_tier, Cgroup): admission decisions, FIFO fairness and the
   admission_rejects counter, also at 10k tenants; tiered swap-device
   demotion/promotion with payload integrity across the migration; a
   tier's host footprint under churn; cgroup hard-limit enforcement on
   the mapping and faulting paths; soft-limit-first victim selection (an
   under-soft tenant's pages survive kswapd while a hog is over);
   equivalence of an oversized near tier with the default (unbounded)
   device; bit-determinism of the fleet driver (tier placement, counters
   and percentiles replay); a fleet run under the shadow oracle's cgroup
   and tier conservation laws; and the SwapVA <= memmove fleet p99 gate
   at the quick and default fleet sizes. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swap_tier = Svagc_reclaim.Swap_tier
module Cgroup = Svagc_reclaim.Cgroup
module Reclaim = Svagc_reclaim.Reclaim
module Admission = Svagc_fleet.Admission
module Fleet = Svagc_fleet.Fleet
module Histogram = Svagc_util.Histogram
module Exp_common = Svagc_experiments.Exp_common
module Exp_fleet = Svagc_experiments.Exp_fleet

let machine ?(ncores = 4) ?(phys_mib = 128) () =
  Machine.create ~ncores ~phys_mib Cost_model.xeon_6130

let base = 1 lsl 32

(* --- Admission --- *)

let test_admission_decisions () =
  let m = machine () in
  let adm =
    Admission.create m ~capacity_frames:100 ~overcommit:1.5 ~queue_limit:2 ()
  in
  Alcotest.(check int) "budget" 150 (Admission.budget_frames adm);
  Alcotest.(check bool) "first fits" true
    (Admission.request adm ~tenant:0 ~frames:100 = Admission.Admitted);
  Alcotest.(check bool) "oversized can never fit" true
    (Admission.request adm ~tenant:1 ~frames:151 = Admission.Rejected);
  Alcotest.(check bool) "next does not fit, queues" true
    (Admission.request adm ~tenant:2 ~frames:60 = Admission.Queued);
  (* FIFO fairness: tenant 3 would fit right now (50 frames spare) but
     must queue behind tenant 2. *)
  Alcotest.(check bool) "newcomer queues behind waiter" true
    (Admission.request adm ~tenant:3 ~frames:40 = Admission.Queued);
  Alcotest.(check bool) "queue full rejects" true
    (Admission.request adm ~tenant:4 ~frames:10 = Admission.Rejected);
  Alcotest.(check int) "admission_rejects counter" 2
    (Perf.get m.Machine.perf Admission_rejects);
  Alcotest.(check int) "committed" 100 (Admission.committed_frames adm);
  Alcotest.(check int) "queue length" 2 (Admission.queue_length adm);
  Admission.release adm ~frames:100;
  Alcotest.(check (list (pair int int)))
    "release drains the queue in FIFO order"
    [ (2, 60); (3, 40) ]
    (Admission.take_ready adm);
  Alcotest.(check int) "committed after drain" 100
    (Admission.committed_frames adm);
  Alcotest.(check int) "admitted total" 3 (Admission.admitted adm);
  Alcotest.(check int) "rejected total" 2 (Admission.rejected adm)

(* Admission math at fleet scale, exercised directly on [Admission] so
   it stays a fast unit test. *)
let test_admission_10k () =
  let m = Helpers.machine () in
  let frames = 16 in
  let adm =
    Admission.create m
      ~capacity_frames:(10_000 * frames)
      ~overcommit:1.0 ~queue_limit:24 ()
  in
  let admitted = ref 0 and queued = ref 0 and rejected = ref 0 in
  for tenant = 0 to 10_499 do
    match Admission.request adm ~tenant ~frames with
    | Admission.Admitted -> incr admitted
    | Admission.Queued -> incr queued
    | Admission.Rejected -> incr rejected
  done;
  Alcotest.(check int) "admitted main wave" 10_000 !admitted;
  Alcotest.(check int) "queued" 24 !queued;
  Alcotest.(check int) "rejected over full queue" 476 !rejected;
  Alcotest.(check int) "committed = budget" (10_000 * frames)
    (Admission.committed_frames adm);
  (* Departures free exactly enough for the whole queue: it must drain
     FIFO, oldest waiter first. *)
  Admission.release adm ~frames:(24 * frames);
  let ready = Admission.take_ready adm in
  Alcotest.(check int) "queue drains fully" 24 (List.length ready);
  Alcotest.(check (list int)) "FIFO drain order"
    (List.init 24 (fun i -> 10_000 + i))
    (List.map fst ready);
  Alcotest.(check int) "admitted total" 10_024 (Admission.admitted adm);
  Alcotest.(check int) "rejected total" 476 (Admission.rejected adm);
  Alcotest.(check int) "rejects counted on the machine" 476
    (Perf.get m.Machine.perf Admission_rejects)

(* --- Swap_tier --- *)

let test_tier_demote_promote () =
  let m = machine () in
  let tier = Swap_tier.create m ~near_slots:2 () in
  let out_empty = Swap_tier.out_ns tier in
  let payload i = String.make Addr.page_size (Char.chr (Char.code 'A' + i)) in
  let slots =
    List.init 3 (fun i ->
        let s = Swap_tier.alloc_slot tier in
        Swap_tier.write tier ~slot:s (Helpers.payload_of_string (payload i));
        s)
  in
  (* The third allocation found the near tier full and demoted the
     coldest slot (the first) to far. *)
  Alcotest.(check (pair int int)) "near full, coldest demoted" (2, 1)
    (Swap_tier.stats tier);
  Alcotest.(check int) "demotion counted" 1 (Perf.get m.Machine.perf Tier_demotions);
  Alcotest.(check bool) "full near tier makes swap-out dearer" true
    (Swap_tier.out_ns tier > out_empty);
  let s0 = List.nth slots 0 and s1 = List.nth slots 1 in
  (* peek is the oracle path: payload visible, no promotion side effect. *)
  Alcotest.(check int) "peek sees payload" (Char.code 'A')
    (Phys_mem.get_u8 (Swap_tier.peek tier ~slot:s0) 0);
  Alcotest.(check int) "peek is not a promotion" 0
    (Perf.get m.Machine.perf Tier_promotions);
  Alcotest.(check bool) "far slot reads slower" true
    (Swap_tier.in_ns tier ~slot:s0 > Swap_tier.in_ns tier ~slot:s1);
  (* A demand-fault take of the far slot is a promotion, and the payload
     survived the near->far migration byte-for-byte. *)
  Alcotest.(check string) "payload intact across demotion" (payload 0)
    (Helpers.string_of_payload (Swap_tier.take tier ~slot:s0));
  Alcotest.(check int) "promotion counted" 1
    (Perf.get m.Machine.perf Tier_promotions);
  Alcotest.(check bool) "take frees the slot" false
    (Swap_tier.allocated tier ~slot:s0);
  List.iter (fun s -> Swap_tier.free_slot tier s) (List.tl slots);
  Alcotest.(check int) "no slot leak" 0 (Swap_tier.slots_in_use tier);
  Alcotest.(check (pair int int)) "both tiers empty" (0, 0)
    (Swap_tier.stats tier)

(* Churn that never fills the near tier (allocate, write, take) leaves
   the tier's host footprint flat: its demotion queue drops stale entries
   instead of growing, and the unbounded default keeps no queue at all. *)
let test_tier_churn_bounded () =
  let churn tier rounds =
    for _ = 1 to rounds do
      let slot = Swap_tier.alloc_slot tier in
      Swap_tier.write tier ~slot Phys_mem.zero;
      ignore (Swap_tier.take tier ~slot)
    done
  in
  List.iter
    (fun (name, near_slots) ->
      let tier = Swap_tier.create (machine ()) ?near_slots () in
      churn tier 100;
      let before = Obj.reachable_words (Obj.repr tier) in
      churn tier 100_000;
      let after = Obj.reachable_words (Obj.repr tier) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d -> %d words" name before after)
        true
        (after - before <= 1024))
    [ ("near_slots 4", Some 4); ("unbounded near tier", None) ]

(* Through the whole reclaim plane: payloads written under pressure go
   near, get demoted to far as the near tier fills, and come back through
   demand faults with every byte intact — the buffers move between frames
   and slots by ownership, so any aliasing would corrupt a neighbour. *)
let test_tier_payload_round_trip () =
  let m = machine () in
  let tier = Swap_tier.create m ~near_slots:4 () in
  ignore (Reclaim.attach m ~limit_frames:8 ~dev:tier ());
  let aspace = Process.aspace (Process.create m) in
  let pages = 32 in
  let va i = base + (i * Addr.page_size) in
  let payload i = Bytes.make Addr.page_size (Char.chr (Char.code '0' + i)) in
  Address_space.map_range aspace ~va:base ~pages;
  for i = 0 to pages - 1 do
    Address_space.write_bytes aspace ~va:(va i) ~src:(payload i)
  done;
  Alcotest.(check bool) "written pages sit in the far tier" true
    (Swap_tier.far_in_use tier > 0);
  for i = 0 to pages - 1 do
    Alcotest.(check bytes)
      (Printf.sprintf "page %d intact" i)
      (payload i)
      (Address_space.read_bytes aspace ~va:(va i) ~len:Addr.page_size)
  done;
  Alcotest.(check bool) "far payloads came back by promotion" true
    (Perf.get m.Machine.perf Tier_promotions > 0);
  (* The oracle's reclaim laws hold on this cgroup-free machine, tier
     conservation included: no backing slot outlived its id. *)
  let tables =
    [ (Address_space.asid aspace, Address_space.page_table aspace) ]
  in
  Alcotest.(check (list string))
    "reclaim laws hold" []
    (List.map
       (fun f -> f.Svagc_check.Check.detail)
       (snd (Svagc_check.Check.reclaim_laws m ~tables)))

(* --- Cgroup accounting against a model --- *)

type cgroup_op =
  | Charge of int
  | Uncharge of int
  | Set_limits of int * int * int

let pp_cgroup_op = function
  | Charge a -> Printf.sprintf "charge %d" a
  | Uncharge a -> Printf.sprintf "uncharge %d" a
  | Set_limits (a, s, h) -> Printf.sprintf "limits %d soft %d hard %d" a s h

(* Asids up to 300 outgrow the tenant array's first size, while most ops
   hit a few busy tenants whose small limits (some invalid) they cross
   both ways.  The model keeps [(resident, soft, hard)] per tenant and
   recomputes every derived answer from scratch. *)
let prop_cgroup_model =
  let asid =
    QCheck.Gen.(frequency [ (8, int_range 1 4); (1, int_range 1 300) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun a -> Charge a) asid);
          (3, map (fun a -> Uncharge a) asid);
          ( 2,
            map3 (fun a s h -> Set_limits (a, s, h)) asid (int_range (-1) 6)
              (int_range 0 8) );
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"agrees with a Hashtbl model"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map pp_cgroup_op ops))
          QCheck.Gen.(list_size (int_range 1 400) op))
       (fun ops ->
         let cg = Cgroup.create () in
         let model = Hashtbl.create 16 in
         let get a =
           Option.value ~default:(0, max_int, max_int) (Hashtbl.find_opt model a)
         in
         let bump a d =
           let r, s, h = get a in
           Hashtbl.replace model a (r + d, s, h)
         in
         List.for_all
           (fun op ->
             let error =
               match op with
               | Charge a ->
                 Cgroup.charge cg ~asid:a;
                 bump a 1;
                 None
               | Uncharge a ->
                 Cgroup.uncharge cg ~asid:a;
                 bump a (-1);
                 None
               | Set_limits (a, soft, hard) -> (
                 let expect =
                   if hard < 1 then Some "Cgroup.set_limits: hard must be >= 1"
                   else if soft < 0 || soft > hard then
                     Some "Cgroup.set_limits: need 0 <= soft <= hard"
                   else None
                 in
                 match Cgroup.set_limits cg ~asid:a ~soft ~hard with
                 | () ->
                   let r, _, _ = get a in
                   Hashtbl.replace model a (r, soft, hard);
                   if expect = None then None else Some "accepted bad limits"
                 | exception Invalid_argument msg ->
                   if expect = Some msg then None else Some ("raised " ^ msg))
             in
             let asid =
               match op with Charge a | Uncharge a | Set_limits (a, _, _) -> a
             in
             let r, s, h = get asid in
             let stats =
               Hashtbl.fold (fun a (r, s, h) acc -> (a, r, s, h) :: acc) model []
               |> List.sort compare
             in
             let over =
               Hashtbl.fold (fun _ (r, s, _) any -> any || r > s) model false
             in
             match error with
             | Some e -> QCheck.Test.fail_reportf "%s: %s" (pp_cgroup_op op) e
             | None ->
               Cgroup.resident cg ~asid = r
               && Cgroup.excess cg ~asid = max 0 (r - h)
               && Cgroup.prefer cg ~asid = (r > s)
               && Cgroup.any_over_soft cg = over
               && Cgroup.tenant_count cg = Hashtbl.length model
               && Cgroup.stats cg = stats
               && Cgroup.resident cg ~asid:301 = 0
               && Cgroup.excess cg ~asid:1000 = 0
               && (not (Cgroup.prefer cg ~asid:0))
               || QCheck.Test.fail_reportf "after %s: disagrees"
                    (pp_cgroup_op op))
           ops))

(* --- Cgroup enforcement through the kernel --- *)

let test_cgroup_hard_limit () =
  let m = machine () in
  let cg = Cgroup.create () in
  ignore (Reclaim.attach m ~limit_frames:1000 ~cgroup:cg ());
  let proc = Process.create m in
  let aspace = Process.aspace proc in
  let asid = Address_space.asid aspace in
  Cgroup.set_limits cg ~asid ~soft:2 ~hard:4;
  Address_space.map_range aspace ~va:base ~pages:8;
  Alcotest.(check bool) "resident capped at hard" true
    (Cgroup.resident cg ~asid <= 4);
  Alcotest.(check int) "no excess after enforcement" 0
    (Cgroup.excess cg ~asid);
  Alcotest.(check int) "evicted pages went to swap"
    (8 - Cgroup.resident cg ~asid)
    (Perf.get m.Machine.perf Pages_swapped_out);
  (* Faulting an evicted page back in re-enforces the limit: residency
     never exceeds hard even transiently after the fault. *)
  ignore (Address_space.read_bytes aspace ~va:base ~len:1);
  Alcotest.(check bool) "still capped after fault-in" true
    (Cgroup.resident cg ~asid <= 4);
  Alcotest.(check bool) "the touch was a major fault" true
    (Perf.get m.Machine.perf Major_faults >= 1)

let test_soft_limit_first () =
  let m = machine () in
  let cg = Cgroup.create () in
  ignore (Reclaim.attach m ~limit_frames:12 ~cgroup:cg ());
  let pa = Process.create m and pb = Process.create m in
  let aa = Process.aspace pa and ab = Process.aspace pb in
  let asid_a = Address_space.asid aa and asid_b = Address_space.asid ab in
  Cgroup.set_limits cg ~asid:asid_a ~soft:2 ~hard:100 (* the over-soft hog *);
  Cgroup.set_limits cg ~asid:asid_b ~soft:100 ~hard:100 (* well-behaved *);
  (* B's pages are mapped first, so without soft-limit-first selection
     they would be the coldest — and the first evicted. *)
  Address_space.map_range ab ~va:base ~pages:4;
  Address_space.map_range aa ~va:base ~pages:10;
  Alcotest.(check bool) "hog is over its soft limit" true
    (Cgroup.prefer cg ~asid:asid_a);
  Alcotest.(check bool) "some eviction happened" true
    (Perf.get m.Machine.perf Pages_swapped_out > 0);
  Alcotest.(check int) "under-soft tenant's pages spared" 4
    (Cgroup.resident cg ~asid:asid_b);
  Alcotest.(check bool) "hog paid the eviction" true
    (Cgroup.resident cg ~asid:asid_a < 10)

(* --- equivalence with the default (flat) device --- *)

(* Pressure churn (map 2x the limit, then touch everything once) with an
   optional device; returns the machine's full counter set plus the
   accumulated reclaim cost. *)
let pressure_counters ~dev_of =
  let m = machine () in
  let dev = dev_of m in
  ignore (Reclaim.attach m ~limit_frames:48 ?dev ());
  let proc = Process.create m in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:96;
  for i = 0 to 95 do
    ignore
      (Address_space.read_bytes aspace
         ~va:(base + (i * Addr.page_size))
         ~len:1)
  done;
  let drained =
    match m.Machine.reclaim with
    | Some r -> r.Machine.ri_drain_ns ()
    | None -> 0.0
  in
  (Perf.to_assoc m.Machine.perf, drained)

let test_oversized_near_tier_is_flat () =
  let flat, flat_ns = pressure_counters ~dev_of:(fun _ -> None) in
  let tiered, tiered_ns =
    pressure_counters ~dev_of:(fun m ->
        Some (Swap_tier.create m ~near_slots:1_000_000 ()))
  in
  (* A near tier that never fills never demotes: same slots, same costs,
     same counters as the default device, whose near side has no bound,
     to the bit. *)
  Alcotest.(check (list (pair string int)))
    "counters identical to the flat device" flat tiered;
  Alcotest.(check (float 0.0)) "reclaim cost identical" flat_ns tiered_ns

(* --- the fleet driver --- *)

let tiny =
  { Fleet.default with Fleet.tenants = 9; surge = 3; steps = 2; queue_limit = 2 }

let run_tiny () =
  Fleet.run ~collector_of:(Exp_common.collector_of Exp_common.Svagc) tiny

let test_fleet_determinism () =
  let a = run_tiny () in
  let b = run_tiny () in
  (* The run exercises every plane it claims to. *)
  Alcotest.(check bool) "surge overflows the queue" true (a.Fleet.rejected > 0);
  Alcotest.(check int) "reject counter agrees" a.Fleet.rejected
    (Perf.get a.Fleet.perf Admission_rejects);
  Alcotest.(check bool) "tier demotions happened" true
    (Perf.get a.Fleet.perf Tier_demotions > 0);
  Alcotest.(check bool) "multiple waves ran" true (a.Fleet.waves >= 2);
  Alcotest.(check bool) "every admitted tenant paused" true
    (Histogram.count a.Fleet.pauses >= a.Fleet.admitted);
  (* Same config + seed replays decisions, placement and percentiles to
     the bit. *)
  Alcotest.(check (list (pair string int)))
    "perf counters replay (demote/promote/reject included)"
    (Perf.to_assoc a.Fleet.perf)
    (Perf.to_assoc b.Fleet.perf);
  Alcotest.(check int) "admitted replays" a.Fleet.admitted b.Fleet.admitted;
  Alcotest.(check int) "waves replay" a.Fleet.waves b.Fleet.waves;
  Alcotest.(check (pair int int)) "tier placement replays" a.Fleet.tier
    b.Fleet.tier;
  Alcotest.(check int) "pause count replays"
    (Histogram.count a.Fleet.pauses)
    (Histogram.count b.Fleet.pauses);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "pause quantile %g replays" q)
        (Histogram.quantile a.Fleet.pauses q)
        (Histogram.quantile b.Fleet.pauses q);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "stall quantile %g replays" q)
        (Histogram.quantile a.Fleet.stalls q)
        (Histogram.quantile b.Fleet.stalls q))
    [ 0.5; 0.99; 0.999 ];
  Alcotest.(check (float 0.0)) "total time replays" a.Fleet.total_ns
    b.Fleet.total_ns

let test_fleet_validate () =
  let rejected c =
    match Fleet.validate c with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let d = Fleet.default in
  Alcotest.(check bool) "default accepted" false (rejected d);
  Alcotest.(check bool) "tiny accepted" false (rejected tiny);
  List.iter
    (fun (name, c) -> Alcotest.(check bool) name true (rejected c))
    [
      ("no tenants", { d with Fleet.tenants = 0 });
      ("negative surge", { d with Fleet.surge = -1 });
      ("no steps", { d with Fleet.steps = 0 });
      ("undercommit", { d with Fleet.overcommit = 0.5 });
      ("NaN overcommit", { d with Fleet.overcommit = Float.nan });
      ("negative queue", { d with Fleet.queue_limit = -1 });
    ]

let test_fleet_under_oracle () =
  Svagc_check.Check.enable ~label:"fleet-test" ();
  ignore (run_tiny ());
  match Svagc_check.Check.disable () with
  | None -> Alcotest.fail "shadow oracle produced no report"
  | Some rep ->
    List.iter
      (fun f -> Format.printf "%a@." Svagc_check.Check.pp_finding f)
      rep.Svagc_check.Check.findings;
    Alcotest.(check int) "no findings" 0
      (List.length rep.Svagc_check.Check.findings)

(* The fleet gate: under 2x overcommit with cgroups and the tiered swap
   device, SwapVA's fleet-wide p99 GC pause must not exceed memmove's. *)
let test_fleet_p99_gate ~quick () =
  let p99 kind = Histogram.p99 (Exp_fleet.measure ~quick kind).Fleet.pauses in
  let swapva = p99 Exp_common.Svagc in
  let memmove = p99 Exp_common.Lisp2_memmove in
  if swapva > memmove then
    Alcotest.failf "SwapVA p99 pause %.0f ns exceeds memmove's %.0f ns" swapva
      memmove

let () =
  Alcotest.run "svagc_fleet"
    [
      ( "admission",
        [
          Alcotest.test_case "decisions & FIFO" `Quick test_admission_decisions;
          Alcotest.test_case "10k tenants" `Quick test_admission_10k;
        ] );
      ( "swap_tier",
        [
          Alcotest.test_case "demote/promote + payload" `Quick
            test_tier_demote_promote;
          Alcotest.test_case "churn keeps the tier bounded" `Quick
            test_tier_churn_bounded;
          Alcotest.test_case "payload round trip through faults" `Quick
            test_tier_payload_round_trip;
          Alcotest.test_case "oversized near tier = flat device" `Quick
            test_oversized_near_tier_is_flat;
        ] );
      ( "cgroup",
        [
          Alcotest.test_case "hard limit enforced" `Quick test_cgroup_hard_limit;
          Alcotest.test_case "soft-limit-first victims" `Quick
            test_soft_limit_first;
          prop_cgroup_model;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "validate rejects bad configs" `Quick
            test_fleet_validate;
          Alcotest.test_case "bit determinism" `Quick test_fleet_determinism;
          Alcotest.test_case "conservation laws hold" `Quick
            test_fleet_under_oracle;
        ] );
      ( "p99_gate",
        [
          Alcotest.test_case "SwapVA <= memmove, quick fleet" `Slow
            (test_fleet_p99_gate ~quick:true);
          Alcotest.test_case "SwapVA <= memmove, default fleet" `Slow
            (test_fleet_p99_gate ~quick:false);
        ] );
    ]
