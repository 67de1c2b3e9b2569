(* Tests for svagc_fault and the GC's graceful degradation under injected
   kernel faults: spec grammar round-trips, injector determinism and
   targeting, faulty collections producing the same heap layout as
   fault-free ones (with clean audits and fallbacks counted), and the
   zero-rate configuration staying bit-identical to a run without any
   fault plane. *)

module Fault_spec = Svagc_fault.Fault_spec
module Injector = Svagc_fault.Injector
module Config = Svagc_core.Config
module Jvm = Svagc_core.Jvm
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Machine = Svagc_vmem.Machine
module Perf = Svagc_vmem.Perf
module Heap = Svagc_heap.Heap
module Obj_model = Svagc_heap.Obj_model
module Exp_common = Svagc_experiments.Exp_common

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let spec_testable =
  Alcotest.testable Fault_spec.pp (fun (a : Fault_spec.t) b -> a = b)

let parse_ok s =
  match Fault_spec.parse s with
  | Ok t -> t
  | Error m -> Alcotest.failf "parse %S unexpectedly failed: %s" s m

let parse_err s =
  match Fault_spec.parse s with
  | Ok t -> Alcotest.failf "parse %S unexpectedly succeeded: %s" s (Fault_spec.to_string t)
  | Error m -> m

(* --- Fault_spec --- *)

let test_parse_empty () =
  Alcotest.check spec_testable "empty string" Fault_spec.empty (parse_ok "");
  Alcotest.check spec_testable "blank string" Fault_spec.empty (parse_ok "   ");
  Alcotest.(check bool) "is_empty" true (Fault_spec.is_empty (parse_ok ""))

let test_parse_clauses () =
  let t = parse_ok "pte:p=0.01,lock:every=64,ipi:p=0.002" in
  Alcotest.(check int) "three clauses" 3 (List.length t);
  (match t with
  | [ a; b; c ] ->
    Alcotest.(check bool) "pte site" true (a.Fault_spec.site = Fault_spec.Pte_resolve);
    Alcotest.(check bool) "pte p" true (a.Fault_spec.mode = Fault_spec.Probability 0.01);
    Alcotest.(check bool) "lock site" true (b.Fault_spec.site = Fault_spec.Lock_acquire);
    Alcotest.(check bool) "lock every" true (b.Fault_spec.mode = Fault_spec.Every 64);
    Alcotest.(check bool) "ipi site" true (c.Fault_spec.site = Fault_spec.Ipi_deliver);
    Alcotest.(check bool) "no window" true (a.Fault_spec.va_lo = None && a.Fault_spec.va_hi = None)
  | _ -> Alcotest.fail "expected three clauses");
  let windowed = parse_ok "pte:p=0.05:va=0x40000000-0x40400000" in
  match windowed with
  | [ c ] ->
    Alcotest.(check (option int)) "va lo" (Some 0x40000000) c.Fault_spec.va_lo;
    Alcotest.(check (option int)) "va hi" (Some 0x40400000) c.Fault_spec.va_hi
  | _ -> Alcotest.fail "expected one windowed clause"

let test_parse_decimal_va_and_spacing () =
  let t = parse_ok " pte:p=0.5:va=4096-8191 , lock:p=1 " in
  Alcotest.(check int) "two clauses" 2 (List.length t);
  match t with
  | [ c; _ ] ->
    Alcotest.(check (option int)) "decimal lo" (Some 4096) c.Fault_spec.va_lo;
    Alcotest.(check (option int)) "decimal hi" (Some 8191) c.Fault_spec.va_hi
  | _ -> Alcotest.fail "expected two clauses"

let test_parse_errors () =
  let has_sub needle hay =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let check_err label s needle =
    let m = parse_err s in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S (got %S)" label needle m)
      true (has_sub needle m)
  in
  check_err "unknown site" "disk:p=0.1" "unknown fault site";
  check_err "p too big" "pte:p=1.5" "p must be in [0,1]";
  check_err "p negative" "pte:p=-0.1" "p must be in [0,1]";
  check_err "every zero" "lock:every=0" "every must be a positive int";
  check_err "missing mode" "pte" "missing firing mode";
  check_err "missing mode with va" "pte:va=0x0-0x1000" "missing firing mode";
  check_err "unknown key" "pte:p=0.1:color=red" "unknown key";
  check_err "bad va" "pte:p=0.1:va=12" "va wants LO-HI";
  check_err "inverted va" "pte:p=0.1:va=0x2000-0x1000" "empty va range";
  check_err "duplicate mode" "pte:p=0.1:every=3" "duplicate mode"

let test_round_trip () =
  List.iter
    (fun s ->
      let t = parse_ok s in
      Alcotest.check spec_testable
        (Printf.sprintf "parse (to_string (parse %S))" s)
        t
        (parse_ok (Fault_spec.to_string t)))
    [
      "pte:p=0.01";
      "lock:every=64";
      "pte:p=0.01,lock:every=100,ipi:p=0.002";
      "pte:p=0.05:va=0x40000000-0x40400000,pte:p=1";
      "ipi:every=7,pte:p=0:va=4096-8192";
    ]

let prop_round_trip =
  let clause_gen =
    QCheck.Gen.(
      let* site = oneofl [ "pte"; "lock"; "ipi" ] in
      let* mode =
        oneof
          [
            map (fun p -> Printf.sprintf "p=%g" (float_of_int p /. 1000.0)) (int_bound 1000);
            map (fun n -> Printf.sprintf "every=%d" (n + 1)) (int_bound 200);
          ]
      in
      let* window =
        oneof
          [
            return "";
            map2
              (fun lo len -> Printf.sprintf ":va=0x%x-0x%x" lo (lo + len))
              (int_bound 0xFFFF) (int_bound 0xFFFF);
          ]
      in
      return (Printf.sprintf "%s:%s%s" site mode window))
  in
  let spec_gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* clauses = list_size (return n) clause_gen in
      return (String.concat "," clauses))
  in
  qtest ~count:200 "to_string/parse round-trips"
    (QCheck.make ~print:(fun s -> s) spec_gen)
    (fun s ->
      let t = parse_ok s in
      parse_ok (Fault_spec.to_string t) = t)

(* --- Injector --- *)

(* A deterministic mixed query schedule covering all three sites and a
   spread of page addresses. *)
let query_schedule n =
  List.init n (fun i ->
      match i mod 5 with
      | 0 | 1 -> (Fault_spec.Pte_resolve, 0x40000000 + (i * 4096))
      | 2 -> (Fault_spec.Pte_resolve, i * 4096)
      | 3 -> (Fault_spec.Lock_acquire, 0)
      | _ -> (Fault_spec.Ipi_deliver, 0))

let drive inj schedule =
  List.map (fun (site, va) -> Injector.fire inj ~site ~va) schedule

let test_injector_deterministic () =
  let spec = parse_ok "pte:p=0.05,lock:p=0.1,ipi:every=3" in
  let schedule = query_schedule 1000 in
  let a = drive (Injector.create spec ~seed:42) schedule in
  let b = drive (Injector.create spec ~seed:42) schedule in
  Alcotest.(check (list bool)) "same (spec, seed) => same stream" a b;
  let c = drive (Injector.create spec ~seed:43) schedule in
  Alcotest.(check bool) "different seed => different stream" true (a <> c);
  Alcotest.(check bool) "positive rates fire eventually" true
    (List.exists (fun x -> x) a)

let test_injector_every_nth () =
  let inj = Injector.create (parse_ok "lock:every=3") ~seed:0 in
  let hits =
    List.init 9 (fun _ -> Injector.fire inj ~site:Fault_spec.Lock_acquire ~va:0)
  in
  Alcotest.(check (list bool)) "3rd, 6th, 9th"
    [ false; false; true; false; false; true; false; false; true ]
    hits;
  Alcotest.(check int) "fired" 3 (Injector.fired inj);
  Alcotest.(check int) "queries" 9 (Injector.queries inj)

let test_injector_site_isolation () =
  (* Queries on other sites must not advance a clause's counter. *)
  let inj = Injector.create (parse_ok "lock:every=2") ~seed:0 in
  Alcotest.(check bool) "lock #1" false
    (Injector.fire inj ~site:Fault_spec.Lock_acquire ~va:0);
  Alcotest.(check bool) "pte ignored" false
    (Injector.fire inj ~site:Fault_spec.Pte_resolve ~va:0x1000);
  Alcotest.(check bool) "ipi ignored" false
    (Injector.fire inj ~site:Fault_spec.Ipi_deliver ~va:0);
  Alcotest.(check bool) "lock #2 fires" true
    (Injector.fire inj ~site:Fault_spec.Lock_acquire ~va:0)

let test_injector_va_window () =
  let inj = Injector.create (parse_ok "pte:every=2:va=0x1000-0x1fff") ~seed:0 in
  let fire va = Injector.fire inj ~site:Fault_spec.Pte_resolve ~va in
  Alcotest.(check bool) "inside #1" false (fire 0x1000);
  (* Outside the window: neither fires nor advances the counter. *)
  Alcotest.(check bool) "below" false (fire 0x0fff);
  Alcotest.(check bool) "above" false (fire 0x2000);
  Alcotest.(check bool) "inside #2 fires" true (fire 0x1fff);
  Alcotest.(check int) "only window hits counted as fired" 1 (Injector.fired inj);
  (* The window does not constrain sites without addresses. *)
  let inj2 = Injector.create (parse_ok "lock:every=1:va=0x1000-0x1fff") ~seed:0 in
  Alcotest.(check bool) "lock unconstrained by window" true
    (Injector.fire inj2 ~site:Fault_spec.Lock_acquire ~va:0)

let test_injector_first_match_wins () =
  (* The first matching clause decides even when it does not fire: a
     later clause for the same site must never be consulted. *)
  let inj = Injector.create (parse_ok "pte:p=0,pte:p=1") ~seed:0 in
  for i = 1 to 50 do
    Alcotest.(check bool)
      (Printf.sprintf "query %d shadowed by p=0 clause" i)
      false
      (Injector.fire inj ~site:Fault_spec.Pte_resolve ~va:(i * 4096))
  done;
  Alcotest.(check int) "nothing fired" 0 (Injector.fired inj)

let test_injector_zero_rate_never_fires () =
  let spec = parse_ok "pte:p=0,lock:p=0,ipi:p=0" in
  let inj = Injector.create spec ~seed:123 in
  let hits = drive inj (query_schedule 500) in
  Alcotest.(check bool) "no hits" false (List.exists (fun x -> x) hits);
  Alcotest.(check int) "queries counted" 500 (Injector.queries inj)

(* --- GC degradation under faults --- *)

type run_outcome = {
  layout : (int * int * int) list;  (* (id, addr, size), address order *)
  gc_ns : float;
  app_ns : float;
  counters : (string * int) list;
  audit : (unit, string list) result;
}

(* Same shape as the `exp resilience` driver: Sigverify's MiB-scale
   objects guarantee swap traffic, so positive fault rates actually hit
   the degradation path. *)
let run_workload config =
  let machine = Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130 in
  let workload = Svagc_workloads.Spec.find "Sigverify" in
  let jvm =
    Runner.make_jvm ~heap_factor:1.2 ~machine
      ~collector_of:(Exp_common.collector_of ~config Exp_common.Svagc)
      workload
  in
  let rng = Svagc_util.Rng.create ~seed:42 in
  let stepper = workload.Workload.setup jvm rng in
  for _ = 1 to 25 do
    stepper ()
  done;
  ignore (Jvm.run_gc jvm);
  (* The full GC left the object vector in address order. *)
  let heap = Jvm.heap jvm in
  let layout =
    List.rev
      (Svagc_util.Vec.fold_left
         (fun acc o -> (o.Obj_model.id, o.Obj_model.addr, o.Obj_model.size) :: acc)
         [] (Heap.objects heap))
  in
  {
    layout;
    gc_ns = Jvm.gc_ns jvm;
    app_ns = Jvm.app_ns jvm;
    counters = Perf.to_assoc machine.Machine.perf;
    audit = Heap.audit heap;
  }

let with_faults ?(seed = 7) rate =
  let spec =
    parse_ok (Printf.sprintf "pte:p=%g,lock:p=%g,ipi:p=%g" rate rate rate)
  in
  { Config.default with Config.fault_spec = spec; fault_seed = seed }

let counter value outcome =
  match List.assoc_opt value outcome.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S missing" value

let layout_testable = Alcotest.(list (triple int int int))

let baseline = lazy (run_workload Config.default)

let check_audit label outcome =
  match outcome.audit with
  | Ok () -> ()
  | Error ps ->
    Alcotest.failf "%s: heap audit failed:\n  %s" label (String.concat "\n  " ps)

let test_faulty_gc_preserves_layout () =
  let base = Lazy.force baseline in
  check_audit "fault-free" base;
  let faulty = run_workload (with_faults 0.02) in
  check_audit "faulty" faulty;
  Alcotest.check layout_testable
    "faulty run reaches the same post-GC layout" base.layout faulty.layout;
  Alcotest.(check bool) "degradation actually exercised" true
    (counter "swap_fallbacks" faulty > 0);
  Alcotest.(check bool) "degradation costs simulated time" true
    (faulty.gc_ns > base.gc_ns)

let prop_faulty_gc_preserves_layout =
  qtest ~count:6 "any fault seed: same layout, clean audit"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let base = Lazy.force baseline in
      let faulty = run_workload (with_faults ~seed 0.01) in
      (match faulty.audit with
      | Ok () -> ()
      | Error ps ->
        QCheck.Test.fail_reportf "audit failed (seed %d):@ %s" seed
          (String.concat "; " ps));
      faulty.layout = base.layout)

let test_zero_rate_bit_identical () =
  (* A zero-rate spec still installs the injector (the queries are made
     and answered "no"), yet every observable — layout, both clocks at
     full float precision, all 22 perf counters — must equal the run
     without any fault plane. *)
  let base = Lazy.force baseline in
  let zero = run_workload (with_faults ~seed:99 0.0) in
  Alcotest.check layout_testable "layout" base.layout zero.layout;
  Alcotest.(check int64) "gc_ns bits"
    (Int64.bits_of_float base.gc_ns)
    (Int64.bits_of_float zero.gc_ns);
  Alcotest.(check int64) "app_ns bits"
    (Int64.bits_of_float base.app_ns)
    (Int64.bits_of_float zero.app_ns);
  Alcotest.(check (list (pair string int))) "perf counters" base.counters
    zero.counters

let test_faulty_rerun_deterministic () =
  let a = run_workload (with_faults 0.02) in
  let b = run_workload (with_faults 0.02) in
  Alcotest.check layout_testable "layout" a.layout b.layout;
  Alcotest.(check int64) "gc_ns bits"
    (Int64.bits_of_float a.gc_ns)
    (Int64.bits_of_float b.gc_ns);
  Alcotest.(check (list (pair string int))) "perf counters" a.counters b.counters;
  (* And a different seed really perturbs the fault stream (the layout
     stays the same regardless — only costs/counters move). *)
  let c = run_workload (with_faults ~seed:12345 0.02) in
  Alcotest.check layout_testable "layout is seed-independent" a.layout c.layout

let () =
  Alcotest.run "svagc_fault"
    [
      ( "fault_spec",
        [
          Alcotest.test_case "parse empty" `Quick test_parse_empty;
          Alcotest.test_case "parse clauses" `Quick test_parse_clauses;
          Alcotest.test_case "decimal va + spacing" `Quick
            test_parse_decimal_va_and_spacing;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          prop_round_trip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "every Nth" `Quick test_injector_every_nth;
          Alcotest.test_case "site isolation" `Quick test_injector_site_isolation;
          Alcotest.test_case "va window" `Quick test_injector_va_window;
          Alcotest.test_case "first match wins" `Quick
            test_injector_first_match_wins;
          Alcotest.test_case "zero rate never fires" `Quick
            test_injector_zero_rate_never_fires;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "faulty GC preserves layout" `Quick
            test_faulty_gc_preserves_layout;
          prop_faulty_gc_preserves_layout;
          Alcotest.test_case "zero rate bit-identical" `Quick
            test_zero_rate_bit_identical;
          Alcotest.test_case "faulty rerun deterministic" `Quick
            test_faulty_rerun_deterministic;
        ] );
    ]
