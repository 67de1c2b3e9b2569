(* Tests for the shadow invariant oracle (svagc_check) and the regressions
   it was built to catch:

   - Vec.pop / Vec.clear and Deque.steal_front used to retain popped or
     stolen elements in the backing array (a host-memory leak observable
     with weak pointers);
   - Machine.flush_tlb_all_cores used to count a single tlb_flush_local
     event for an all-core flush (undercounting by ncores - 1) and had no
     machine-wide counter at all;
   - Shootdown.flush_after_swap's Process_targeted branch inlined its own
     broadcast-cost formula and never counted the broadcast, so
     ipis_sent could not be reconciled against shootdown_broadcasts. *)

open Svagc_vmem
module Vec = Svagc_util.Vec
module Deque = Svagc_par.Deque
module Process = Svagc_kernel.Process
module Shootdown = Svagc_kernel.Shootdown
module Check = Svagc_check.Check
module Differential = Svagc_check.Differential
module Tracer = Svagc_trace.Tracer
module Runner = Svagc_workloads.Runner
module Exp_common = Svagc_experiments.Exp_common

let qtest ?(count = 25) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let check_no_findings what (items, findings) =
  Alcotest.(check bool) (what ^ ": items inspected") true (items > 0);
  match findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: %d finding(s), first: %a" what (List.length findings)
      Check.pp_finding f

let check_finds what (_, findings) =
  Alcotest.(check bool) (what ^ ": oracle reports a finding") true
    (findings <> [])

(* --- S1: containers must not retain popped / stolen elements --- *)

(* The probe lives in its own function so the local binding is dead by the
   time the caller forces a major collection; [Sys.opaque_identity] keeps
   the compiler from collapsing the allocation. *)
let[@inline never] vec_with_probe () =
  let v = Vec.create () in
  let probe = Sys.opaque_identity (ref 42) in
  Vec.push v probe;
  let w = Weak.create 1 in
  Weak.set w 0 (Some probe);
  (v, w)

let[@inline never] deque_with_probe () =
  let d = Deque.create () in
  let probe = Sys.opaque_identity (ref 42) in
  Deque.push d probe;
  (* A live tail element keeps the deque non-empty so the abandoned head
     slot is not reclaimed by the drain path. *)
  Deque.push d (ref 0);
  let w = Weak.create 1 in
  Weak.set w 0 (Some probe);
  (d, w)

let collected w =
  Gc.full_major ();
  Gc.full_major ();
  not (Weak.check w 0)

let test_vec_pop_releases () =
  let v, w = vec_with_probe () in
  ignore (Sys.opaque_identity (Vec.pop v));
  Alcotest.(check bool) "popped element is collectable" true (collected w);
  (* The vector itself is still live and usable. *)
  Vec.push v (ref 7);
  Alcotest.(check int) "vec still works" 1 (Vec.length v)

let test_vec_clear_releases () =
  let v, w = vec_with_probe () in
  Vec.clear v;
  Alcotest.(check bool) "cleared element is collectable" true (collected w);
  Alcotest.(check int) "empty after clear" 0 (Vec.length v)

let test_deque_steal_releases () =
  let d, w = deque_with_probe () in
  ignore (Sys.opaque_identity (Deque.steal_front d));
  Alcotest.(check bool) "stolen element is collectable" true (collected w);
  Alcotest.(check int) "tail element still there" 1 (Deque.length d)

let test_vec_create_capacity () =
  (* create ~capacity used to ignore its argument. *)
  let v = Vec.create ~capacity:64 () in
  for i = 0 to 63 do
    Vec.push v i
  done;
  Alcotest.(check int) "64 pushes" 64 (Vec.length v);
  Alcotest.(check int) "order kept" 63 (Vec.get v 63)

let test_vec_floats_sound () =
  (* The Obj.t backing must not specialize to a flat float array. *)
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1.5; 2.5; 3.5 ];
  Alcotest.(check (float 0.0)) "float get" 2.5 (Vec.get v 1);
  Alcotest.(check bool) "pop" true (Vec.pop v = Some 3.5);
  Alcotest.(check bool) "to_array" true (Vec.to_array v = [| 1.5; 2.5 |])

(* --- S2: flush_tlb_all_cores counts every core it flushes --- *)

let fresh_machine ?(ncores = 4) () =
  Machine.create ~ncores ~phys_mib:32 Cost_model.xeon_6130

let test_flush_all_counts_per_core () =
  let machine = fresh_machine ~ncores:4 () in
  ignore (Machine.flush_tlb_all_cores machine ~asid:1 ~from_core:0);
  Alcotest.(check int) "one local flush per core" 4
    (Perf.get machine.Machine.perf Tlb_flush_local);
  Alcotest.(check int) "one machine-wide flush" 1
    (Perf.get machine.Machine.perf Tlb_flush_all);
  Alcotest.(check int) "one broadcast" 1
    (Perf.get machine.Machine.perf Shootdown_broadcasts);
  Alcotest.(check int) "ipis to the 3 remote cores" 3
    (Perf.get machine.Machine.perf Ipis_sent);
  check_no_findings "counter laws after flush-all"
    (Check.counter_laws machine)

let test_flush_all_single_core () =
  let machine = fresh_machine ~ncores:1 () in
  ignore (Machine.flush_tlb_all_cores machine ~asid:1 ~from_core:0);
  Alcotest.(check int) "one core flushed" 1
    (Perf.get machine.Machine.perf Tlb_flush_local);
  Alcotest.(check int) "no ipis on a single core" 0
    (Perf.get machine.Machine.perf Ipis_sent);
  check_no_findings "counter laws, 1 core" (Check.counter_laws machine)

(* --- S3: Process_targeted routes through the shared costed helper --- *)

let test_targeted_counts_broadcast () =
  let machine = fresh_machine ~ncores:8 () in
  let cost =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0
      Shootdown.Process_targeted
  in
  Alcotest.(check int) "broadcast counted" 1
    (Perf.get machine.Machine.perf Shootdown_broadcasts);
  Alcotest.(check int) "7 remote ipis" 7 (Perf.get machine.Machine.perf Ipis_sent);
  let c = machine.Machine.cost in
  let expected =
    c.Cost_model.tlb_flush_local_ns
    +. (0.6 *. (c.Cost_model.ipi_ns +. (6.0 *. c.Cost_model.ipi_ack_ns)))
  in
  Alcotest.(check (float 1e-9)) "60% of a full round trip" expected cost;
  check_no_findings "counter laws after targeted flush"
    (Check.counter_laws machine)

let test_policies_reconcile_with_eq2 () =
  (* Whatever mix of shootdown flavors ran, ipis_sent must reconcile
     against shootdown_broadcasts — the law Process_targeted used to
     break. *)
  let machine = fresh_machine ~ncores:6 () in
  List.iter
    (fun policy ->
      ignore (Shootdown.flush_after_swap machine ~asid:1 ~core:2 policy))
    Shootdown.
      [ Broadcast_per_call; Process_targeted; Local_pinned; Self_invalidate ];
  ignore (Machine.flush_tlb_all_cores machine ~asid:1 ~from_core:0);
  Alcotest.(check int) "3 broadcasts (2 ipi-free policies)" 3
    (Perf.get machine.Machine.perf Shootdown_broadcasts);
  Alcotest.(check int) "ipis = broadcasts * remotes" 15
    (Perf.get machine.Machine.perf Ipis_sent);
  check_no_findings "counter laws across all policies"
    (Check.counter_laws machine)

(* --- the oracles themselves must catch deliberate violations --- *)

let proc_with_arena machine =
  let proc = Process.create ~name:"oracle" machine in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:Differential.arena_base ~pages:8;
  (proc, aspace)

let test_oracle_catches_stale_tlb () =
  let machine = fresh_machine () in
  let _proc, aspace = proc_with_arena machine in
  let asid = Address_space.asid aspace in
  let tables = [ (asid, Address_space.page_table aspace) ] in
  (* Wrong frame for a mapped page: incoherent with the page table. *)
  let vpn = Differential.arena_base / Addr.page_size in
  Tlb.insert (Machine.core machine 0).Machine.tlb ~asid ~vpn ~frame:424242;
  check_finds "stale frame" (Check.tlb_coherence machine ~tables);
  (* And a shootdown that left an entry behind. *)
  check_finds "unflushed entry" (Check.shootdown_flushed machine ~asid)

let test_oracle_accepts_coherent_tlb () =
  let machine = fresh_machine () in
  let _proc, aspace = proc_with_arena machine in
  let asid = Address_space.asid aspace in
  Address_space.touch aspace ~core:0 ~va:Differential.arena_base;
  let tables = [ (asid, Address_space.page_table aspace) ] in
  check_no_findings "coherent after touch"
    (Check.tlb_coherence machine ~tables)

let test_oracle_catches_counter_drift () =
  let machine = fresh_machine () in
  ignore (Machine.flush_tlb_all_cores machine ~asid:1 ~from_core:0);
  Perf.bump machine.Machine.perf Ipis_sent 1;
  check_finds "Eq. 2 drift" (Check.counter_laws machine)

let test_oracle_catches_clock_regression () =
  Check.enable ~label:"clock-test" ();
  Check.observe_clock ~key:"t.app" 100.0;
  Check.observe_clock ~key:"t.app" 99.0;
  match Check.disable () with
  | None -> Alcotest.fail "shadow mode was enabled"
  | Some rep ->
    Alcotest.(check bool) "regression detected" true (rep.Check.findings <> [])

let test_shadow_disable_returns_none_when_off () =
  Alcotest.(check bool) "off by default" false (Check.enabled ());
  Alcotest.(check bool) "disable when off" true (Check.disable () = None)

(* --- S4: work-steal contract, including the edge cases --- *)

let test_work_steal_edges () =
  check_no_findings "zero items, one thread"
    (Check.work_steal_oracle ~threads:1 [||]);
  check_no_findings "zero items, eight threads"
    (Check.work_steal_oracle ~threads:8 [||]);
  check_no_findings "one task, sixteen threads"
    (Check.work_steal_oracle ~threads:16 [| 250.0 |]);
  check_no_findings "threads >> tasks"
    (Check.work_steal_oracle ~threads:12 [| 5.0; 7.0; 11.0 |]);
  check_no_findings "costly steals"
    (Check.work_steal_oracle ~threads:4 ~steal_ns:50.0 ~barrier_ns:10.0
       (Array.init 30 (fun i -> float_of_int (1 + (i mod 5)))))

let test_work_steal_qcheck =
  qtest "work-steal laws hold on random schedules"
    QCheck.(pair (int_range 1 9) (list_of_size Gen.(0 -- 40) (int_range 1 500)))
    (fun (threads, costs) ->
      let costs = Array.of_list (List.map float_of_int costs) in
      snd (Check.work_steal_oracle ~threads costs) = [])

(* --- the differential harness (qcheck-driven) --- *)

let test_differential_engines =
  qtest ~count:15 "swap engines agree on random schedules"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let case = Differential.gen_case ~arena_pages:512 ~seed () in
      match Differential.compare_case case with
      | _, [] -> true
      | _, f :: _ ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Check.pp_finding f)

let test_differential_rate0 =
  qtest ~count:8 "rate-0 injector is bit-identical"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let case = Differential.gen_case ~arena_pages:512 ~seed () in
      match Differential.zero_fault_identity case with
      | _, [] -> true
      | _, f :: _ ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Check.pp_finding f)

let test_differential_suite () =
  check_no_findings "differential suite"
    (Differential.run_suite ~cases:6 ~seed:0xBEEF ())

(* 1-domain vs 4-domain replays of the same GC + sweep workload must be
   bit-identical in clocks, counters, layouts and traces. *)
let test_par_identity () =
  check_no_findings "par identity"
    (Differential.par_identity ~domains:4 ~seed:0xD011 ())

(* --- end to end: a traced workload under shadow mode stays clean --- *)

let test_shadow_end_to_end () =
  Check.enable ~label:"e2e" ();
  let (), tracer =
    Tracer.with_tracer (fun () ->
        let workload = Svagc_workloads.Spec.find "fft.small" in
        let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
        let collector_of =
          Exp_common.collector_of ~config:Svagc_core.Config.default
            Exp_common.Svagc
        in
        ignore (Runner.run ~heap_factor:1.2 ~steps:6 ~machine ~collector_of
                  workload))
  in
  Check.observe_tracer tracer;
  match Check.disable () with
  | None -> Alcotest.fail "shadow mode was enabled"
  | Some rep ->
    (match rep.Check.findings with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "%d finding(s), first: %a"
        (List.length rep.Check.findings) Check.pp_finding f);
    Alcotest.(check bool) "observed the machine" true
      (rep.Check.machines_observed >= 1);
    Alcotest.(check bool) "observed shootdowns" true
      (rep.Check.shootdowns_observed > 0);
    Alcotest.(check bool) "ran oracles" true (rep.Check.oracles_run > 0)

let () =
  Alcotest.run "svagc_check"
    [
      ( "container-leaks",
        [
          Alcotest.test_case "vec pop releases slot" `Quick
            test_vec_pop_releases;
          Alcotest.test_case "vec clear releases slots" `Quick
            test_vec_clear_releases;
          Alcotest.test_case "deque steal releases slot" `Quick
            test_deque_steal_releases;
          Alcotest.test_case "vec create honors capacity" `Quick
            test_vec_create_capacity;
          Alcotest.test_case "vec is float-sound" `Quick test_vec_floats_sound;
        ] );
      ( "flush-counters",
        [
          Alcotest.test_case "flush-all counts per core" `Quick
            test_flush_all_counts_per_core;
          Alcotest.test_case "flush-all on one core" `Quick
            test_flush_all_single_core;
          Alcotest.test_case "targeted flush counts its broadcast" `Quick
            test_targeted_counts_broadcast;
          Alcotest.test_case "all policies reconcile with Eq. 2" `Quick
            test_policies_reconcile_with_eq2;
        ] );
      ( "oracle-sensitivity",
        [
          Alcotest.test_case "catches stale TLB entries" `Quick
            test_oracle_catches_stale_tlb;
          Alcotest.test_case "accepts coherent TLBs" `Quick
            test_oracle_accepts_coherent_tlb;
          Alcotest.test_case "catches counter drift" `Quick
            test_oracle_catches_counter_drift;
          Alcotest.test_case "catches clock regressions" `Quick
            test_oracle_catches_clock_regression;
          Alcotest.test_case "disable without enable" `Quick
            test_shadow_disable_returns_none_when_off;
        ] );
      ( "work-steal",
        [
          Alcotest.test_case "edge cases" `Quick test_work_steal_edges;
          test_work_steal_qcheck;
        ] );
      ( "differential",
        [
          test_differential_engines;
          test_differential_rate0;
          Alcotest.test_case "suite smoke" `Quick test_differential_suite;
          Alcotest.test_case "par identity (1 vs 4 domains)" `Quick
            test_par_identity;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "traced run under shadow mode" `Quick
            test_shadow_end_to_end ] );
    ]
