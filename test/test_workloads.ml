(* Tests for the benchmark suite: every workload must run, allocate at
   paper-scale object sizes, trigger full GCs, and be deterministic. *)

open Svagc_vmem
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Spec = Svagc_workloads.Spec
module Jvm = Svagc_core.Jvm

let machine () = Machine.create ~phys_mib:1024 Cost_model.xeon_6130

let svagc = Svagc_core.Svagc.collector ~config:Svagc_core.Config.default

let run ?(steps = 25) ?(min_gcs = 2) w =
  Runner.run ~machine:(machine ()) ~collector_of:svagc ~steps ~min_gcs w

(* One test per suite benchmark: runs clean and observes >= 2 full GCs. *)
let smoke_cases =
  List.map
    (fun w ->
      Alcotest.test_case w.Workload.name `Slow (fun () ->
          let r = run w in
          Alcotest.(check bool) "steps executed" true (r.Runner.steps > 0);
          Alcotest.(check bool) "full GCs observed" true
            (r.Runner.summary.Svagc_gc.Gc_stats.cycles >= 2);
          Alcotest.(check bool) "app time accrued" true (r.Runner.app_ns > 0.0)))
    Spec.suite

let test_lru_cache_runs () =
  let r = run Svagc_workloads.Lru_cache.workload in
  Alcotest.(check bool) "gcs" true (r.Runner.summary.Svagc_gc.Gc_stats.cycles >= 1)

let test_determinism () =
  let once () =
    let r = run ~steps:15 Svagc_workloads.Sparse.large in
    (r.Runner.steps, r.Runner.app_ns, r.Runner.gc_ns,
     r.Runner.summary.Svagc_gc.Gc_stats.cycles)
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "identical replays" true (a = b)

let test_heap_factor_scales () =
  let w = Svagc_workloads.Sparse.large in
  Alcotest.(check bool) "2x heap is larger" true
    (Workload.heap_bytes w ~factor:2.0 > Workload.heap_bytes w ~factor:1.2)

let test_bigger_heap_fewer_gcs () =
  let w = Svagc_workloads.Compress.workload in
  let gcs factor =
    let r =
      Runner.run ~machine:(machine ()) ~collector_of:svagc ~heap_factor:factor
        ~steps:40 ~min_gcs:0 w
    in
    r.Runner.summary.Svagc_gc.Gc_stats.cycles
  in
  Alcotest.(check bool) "2x heap collects less often" true (gcs 2.0 <= gcs 1.2)

let test_spec_registry () =
  Alcotest.(check int) "suite has the 14 Table III benchmarks" 14
    (List.length Spec.suite);
  Alcotest.(check bool) "find works" true
    ((Spec.find "Sigverify").Workload.name = "Sigverify");
  Alcotest.(check bool) "find missing raises" true
    (try ignore (Spec.find "nope"); false with Not_found -> true);
  Alcotest.(check int) "table rows cover everything" (List.length Spec.all)
    (List.length (Spec.table_ii_rows ()))

let test_sigverify_objects_are_large () =
  (* All Sigverify allocations are fixed 1 MiB: every survivor must be
     page-aligned (swappable). *)
  let r = run Svagc_workloads.Sigverify.default in
  Alcotest.(check bool) "ran" true (r.Runner.steps > 0);
  let machine = machine () in
  let jvm =
    Runner.make_jvm ~machine ~collector_of:svagc Svagc_workloads.Sigverify.default
  in
  let rng = Svagc_util.Rng.create ~seed:1 in
  let step = (Svagc_workloads.Sigverify.default).Workload.setup jvm rng in
  step ();
  Svagc_util.Vec.iter
    (fun o ->
      Alcotest.(check bool) "1 MiB object aligned" true
        (Addr.is_page_aligned o.Svagc_heap.Obj_model.addr))
    (Svagc_heap.Heap.objects (Jvm.heap jvm))

let test_bisort_objects_are_small () =
  (* Bisort is the no-benefit anchor: its GC must swap (almost) nothing. *)
  let r = run ~steps:6 ~min_gcs:1 Svagc_workloads.Bisort.workload in
  let swapped =
    List.fold_left
      (fun acc c -> acc + c.Svagc_gc.Gc_stats.swapped_objects)
      0 r.Runner.cycles
  in
  let moved =
    List.fold_left
      (fun acc c -> acc + c.Svagc_gc.Gc_stats.moved_objects)
      0 r.Runner.cycles
  in
  Alcotest.(check bool) "almost nothing swappable" true
    (moved = 0 || float_of_int swapped /. float_of_int moved < 0.02)

let test_workload_gc_correctness_end_to_end () =
  (* Drive a real workload, then verify every surviving object's header
     still matches its mirror — the full-stack integrity check. *)
  let machine = machine () in
  let jvm = Runner.make_jvm ~machine ~collector_of:svagc Svagc_workloads.Fft.large in
  let rng = Svagc_util.Rng.create ~seed:5 in
  let step = Svagc_workloads.Fft.large.Workload.setup jvm rng in
  for _ = 1 to 80 do
    step ()
  done;
  Alcotest.(check bool) "gcs happened" true (Jvm.gc_count jvm >= 1);
  let heap = Jvm.heap jvm in
  Svagc_util.Vec.iter
    (fun o ->
      Alcotest.(check bool) "header intact" true (Svagc_heap.Heap.header_matches heap o))
    (Svagc_heap.Heap.objects heap)

(* A finished run keeps nothing of its machine alive: the test holds the
   result, but the machine only through a weak pointer, so any global
   that still reaches the machine after a full host collection shows up
   here.  The run lives in a function of its own so that no stack slot
   of the test holds the machine either. *)
let[@inline never] run_on_weak_machine weak =
  let m = machine () in
  Weak.set weak 0 (Some m);
  Runner.run ~machine:m ~collector_of:svagc ~steps:5 ~min_gcs:1
    Svagc_workloads.Sparse.quarter

let test_run_retains_no_machine () =
  let weak = Weak.create 1 in
  let r = run_on_weak_machine weak in
  Gc.full_major ();
  Alcotest.(check bool) "run finished" true (r.Runner.steps > 0);
  Alcotest.(check bool) "machine collected" false (Weak.check weak 0)

let () =
  Alcotest.run "svagc_workloads"
    [
      ("suite-smoke", smoke_cases);
      ( "behaviour",
        [
          Alcotest.test_case "lru cache" `Quick test_lru_cache_runs;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "heap factor" `Quick test_heap_factor_scales;
          Alcotest.test_case "bigger heap fewer gcs" `Slow test_bigger_heap_fewer_gcs;
          Alcotest.test_case "spec registry" `Quick test_spec_registry;
          Alcotest.test_case "sigverify large objects" `Slow
            test_sigverify_objects_are_large;
          Alcotest.test_case "bisort small objects" `Slow test_bisort_objects_are_small;
          Alcotest.test_case "end-to-end integrity" `Slow
            test_workload_gc_correctness_end_to_end;
          Alcotest.test_case "run retains no machine" `Quick
            test_run_retains_no_machine;
        ] );
    ]
