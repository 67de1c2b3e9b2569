(* Tests for the event-driven simulation core (lib/sched): calendar heap
   ordering, FIFO tie-breaking among same-instant events, lazy
   cancellation and the perf-counter wiring; a qcheck property that the
   calendar engine fires any random schedule in the bit-identical order
   of the lockstep reference scan; the same equivalence on real
   co-running JVMs through [Multi_jvm]; and the admission math that the
   10k-tenant fleet relies on, exercised directly on [Admission] so it
   stays a fast unit test. *)

open Svagc_vmem
module Calendar = Svagc_sched.Calendar
module Engine = Svagc_sched.Engine
module Config = Svagc_core.Config
module Svagc = Svagc_core.Svagc
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Admission = Svagc_fleet.Admission
module Rng = Svagc_util.Rng

let qtest ?(count = 60) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Calendar --- *)

let drain cal =
  let rec go acc =
    match Calendar.pop cal with
    | None -> List.rev acc
    | Some (payload, ns) -> go ((payload, ns) :: acc)
  in
  go []

let test_calendar_pop_order () =
  let cal = Calendar.create () in
  let times = [ 7.; 3.; 9.; 1.; 5.; 8.; 2.; 6.; 4.; 0. ] in
  List.iteri (fun i ns -> ignore (Calendar.schedule cal ~ns i)) times;
  Alcotest.(check int) "live" 10 (Calendar.live cal);
  Alcotest.(check (option (float 0.))) "peek" (Some 0.) (Calendar.peek_ns cal);
  let popped = drain cal in
  Alcotest.(check (list (float 0.)))
    "ns ascending"
    [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ]
    (List.map snd popped);
  Alcotest.(check bool) "empty after drain" true (Calendar.is_empty cal)

let test_calendar_fifo_ties () =
  let cal = Calendar.create () in
  (* Ten events at the same instant, bracketed by earlier/later ones:
     the tied block must come back in insertion order. *)
  ignore (Calendar.schedule cal ~ns:1. (-1));
  for i = 0 to 9 do
    ignore (Calendar.schedule cal ~ns:5. i)
  done;
  ignore (Calendar.schedule cal ~ns:3. (-2));
  let popped = List.map fst (drain cal) in
  Alcotest.(check (list int))
    "FIFO among equal ns"
    [ -1; -2; 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    popped

let test_calendar_cancel () =
  let cal = Calendar.create () in
  let h0 = Calendar.schedule cal ~ns:1. "a" in
  let h1 = Calendar.schedule cal ~ns:2. "b" in
  let h2 = Calendar.schedule cal ~ns:3. "c" in
  Alcotest.(check bool) "cancel pending" true (Calendar.cancel cal h1);
  Alcotest.(check bool) "cancel twice" false (Calendar.cancel cal h1);
  Alcotest.(check int) "live after cancel" 2 (Calendar.live cal);
  Alcotest.(check (list string)) "cancelled event skipped" [ "a"; "c" ]
    (List.map fst (drain cal));
  Alcotest.(check bool) "cancel after fire" false (Calendar.cancel cal h0);
  let h3 = Calendar.schedule cal ~ns:4. "d" in
  Calendar.clear cal;
  Alcotest.(check bool) "cleared events are cancelled" false
    (Calendar.cancel cal h3);
  Alcotest.(check int) "clear empties" 0 (Calendar.live cal);
  Alcotest.(check int) "scheduled_total is lifetime" 4
    (Calendar.scheduled_total cal);
  ignore h2

let test_calendar_rejects_bad_ns () =
  let cal = Calendar.create () in
  let raises ns =
    match Calendar.schedule cal ~ns () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "NaN rejected" true (raises Float.nan);
  Alcotest.(check bool) "negative rejected" true (raises (-1.));
  Alcotest.(check bool) "zero fine" false (raises 0.)

let test_calendar_perf_counters () =
  let perf = Perf.create () in
  let cal = Calendar.create ~perf () in
  let hs = List.init 6 (fun i -> Calendar.schedule cal ~ns:(float_of_int i) i) in
  ignore (Calendar.cancel cal (List.nth hs 2));
  ignore (Calendar.cancel cal (List.nth hs 4));
  let fired = List.length (drain cal) in
  Alcotest.(check int) "fired" 4 fired;
  Alcotest.(check int) "sched_scheduled" 6 (Perf.get perf Sched_scheduled);
  Alcotest.(check int) "sched_dispatched" 4 (Perf.get perf Sched_dispatched);
  Alcotest.(check int) "sched_cancelled" 2 (Perf.get perf Sched_cancelled);
  Alcotest.(check bool) "conservation law" true
    (Perf.get perf Sched_dispatched + Perf.get perf Sched_cancelled
    <= Perf.get perf Sched_scheduled)

(* --- engine equivalence: lockstep scan vs calendar --- *)

(* Draw the whole schedule up front so both engines replay the identical
   plan: per-proc entry times from a tiny range and strides including 0
   make same-instant FIFO ties the common case, which is exactly where
   the two engines could diverge. *)
let sched_plan seed =
  let rng = Rng.create ~seed in
  let nprocs = 1 + Rng.int rng 10 in
  let firsts = Array.init nprocs (fun _ -> float_of_int (Rng.int rng 4)) in
  let plans =
    Array.init nprocs (fun _ ->
        Array.init (Rng.int rng 12) (fun _ -> Rng.int rng 3))
  in
  (firsts, plans)

let replay_plan (firsts, plans) engine =
  let order = ref [] in
  let procs =
    Array.mapi
      (fun i first_ns ->
        let k = ref 0 in
        Engine.proc ~first_ns (fun ~now ->
            order := (i, now) :: !order;
            if !k >= Array.length plans.(i) then Engine.done_ns
            else begin
              let stride = plans.(i).(!k) in
              incr k;
              now +. float_of_int stride
            end))
      firsts
  in
  let fired =
    match engine with
    | `Scan -> Svagc_check.Differential.run_lockstep_scan procs
    | `Calendar -> Engine.run_calendar procs
  in
  (fired, List.rev !order)

let prop_engine_equivalence =
  qtest ~count:200 "calendar replays any schedule like the scan"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let plan = sched_plan seed in
      let scan_n, scan_order = replay_plan plan `Scan in
      let cal_n, cal_order = replay_plan plan `Calendar in
      if scan_n <> cal_n then
        QCheck.Test.fail_reportf "seed %d: %d events vs %d" seed scan_n cal_n;
      List.iter2
        (fun (pi, pns) (ci, cns) ->
          if pi <> ci || pns <> cns then
            QCheck.Test.fail_reportf
              "seed %d: firing diverged (scan proc %d @ %g, calendar proc %d @ %g)"
              seed pi pns ci cns)
        scan_order cal_order;
      true)

(* --- Multi_jvm: both drivers leave real JVMs bit-identical --- *)

(* The sched_* counters legitimately differ (only the calendar engine
   schedules through a [Calendar]); everything else must match. *)
let non_sched_counters m =
  List.filter
    (fun (k, _) -> not (String.length k >= 6 && String.sub k 0 6 = "sched_"))
    (Perf.to_assoc m.Machine.perf)

let run_multi ~engine () =
  let machine = Helpers.machine () in
  let multi =
    Multi_jvm.create machine ~instances:3 ~spawn:(fun ~index m ->
        Jvm.create m
          ~name:(Printf.sprintf "jvm-%d" index)
          ~heap_bytes:(2 * 1024 * 1024)
          ~collector_of:(Svagc.collector ~config:Config.default)
          ())
  in
  let step jvm s =
    (* Deterministic per-(jvm, step) allocation mix, big enough to force
       GCs on the 2 MiB heaps. *)
    let size = (48 * 1024) + (((s * 7) mod 5) * 8 * 1024) in
    ignore (Jvm.alloc jvm ~size ~n_refs:0 ~cls:(s mod 3))
  in
  (match engine with
  | `Calendar -> Multi_jvm.run_round_robin multi ~steps:120 ~step
  | `Lockstep ->
    for s = 0 to 119 do
      Array.iter (fun jvm -> step jvm s) (Multi_jvm.jvms multi)
    done);
  let gcs = Array.map Jvm.gc_count (Multi_jvm.jvms multi) in
  let summary =
    ( Multi_jvm.max_total_ns multi,
      Multi_jvm.avg_gc_ns multi,
      Multi_jvm.avg_app_ns multi )
  in
  Multi_jvm.release multi;
  (gcs, summary, non_sched_counters machine)

let test_multi_jvm_engines_identical () =
  let gcs_l, sum_l, ctr_l = run_multi ~engine:`Lockstep () in
  let gcs_c, sum_c, ctr_c = run_multi ~engine:`Calendar () in
  Alcotest.(check (array int)) "gc counts" gcs_l gcs_c;
  let l_max, l_gc, l_app = sum_l and c_max, c_gc, c_app = sum_c in
  Alcotest.(check bool) "clock summaries bit-identical" true
    (l_max = c_max && l_gc = c_gc && l_app = c_app);
  Alcotest.(check (list (pair string int))) "perf counters" ctr_l ctr_c;
  Alcotest.(check bool) "work actually happened" true
    (Array.exists (fun g -> g > 0) gcs_l)

(* --- admission math at fleet scale --- *)

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

let () =
  Alcotest.run "svagc_sched"
    [
      ( "calendar",
        [
          Alcotest.test_case "pop order" `Quick test_calendar_pop_order;
          Alcotest.test_case "FIFO ties" `Quick test_calendar_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_calendar_cancel;
          Alcotest.test_case "rejects bad ns" `Quick test_calendar_rejects_bad_ns;
          Alcotest.test_case "perf counters" `Quick test_calendar_perf_counters;
        ] );
      ("engine", [ prop_engine_equivalence ]);
      ( "multi_jvm",
        [
          Alcotest.test_case "both drivers bit-identical" `Quick
            test_multi_jvm_engines_identical;
        ] );
      ("admission", [ Alcotest.test_case "10k tenants" `Quick test_admission_10k ]);
    ]
