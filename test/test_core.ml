(* Tests for the paper's contribution: SVAGC configuration, MoveObject,
   the SwapVA mover, JVM instances, multi-JVM contention and the co-run
   loop's step-major order.  The central differential property: an
   SVAGC collection must leave the heap in exactly the state a memmove
   collection leaves it in — same addresses, same bytes — while copying
   almost nothing. *)

open Svagc_vmem
open Svagc_heap
module Config = Svagc_core.Config
module Svagc = Svagc_core.Svagc
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Gc_intf = Svagc_gc.Gc_intf
module Gc_stats = Svagc_gc.Gc_stats

let qtest ?(count = 12) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Config --- *)

(* Every optimization the config can switch off, switched off: no PMD
   caching, no aggregation, a broadcast shootdown per SwapVA call. *)
let all_off =
  {
    Config.default with
    Config.pmd_caching = false;
    aggregation_batch = 1;
    flush = Svagc_kernel.Shootdown.Broadcast_per_call;
  }

let test_config_defaults_valid () =
  Config.validate Config.default;
  Config.validate all_off

let test_config_bad_values () =
  let invalid cfg =
    try Config.validate cfg; false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "threshold" true
    (invalid { Config.default with Config.threshold_pages = 0 });
  Alcotest.(check bool) "batch" true
    (invalid { Config.default with Config.aggregation_batch = 0 });
  Alcotest.(check bool) "threads" true
    (invalid { Config.default with Config.gc_threads = 0 })

(* --- Move_object --- *)

(* Algorithm 3's size test, which the SwapVA mover applies to each move. *)
let test_should_swap_threshold () =
  let heap = Helpers.heap ~threshold_pages:10 () in
  Alcotest.(check bool) "below" false
    (Heap.swap_sized heap ~size:((10 * 4096) - 1));
  Alcotest.(check bool) "at" true (Heap.swap_sized heap ~size:(10 * 4096));
  Alcotest.(check bool) "above" true (Heap.swap_sized heap ~size:(1 lsl 20))

(* The SwapVA mover driven directly on a hand-built plan (P = one page;
   threshold 10 pages, batches of 4 requests):
   - A and B (10P each) slide down 30P: their moves butt and the merged
     ranges stay disjoint, so they coalesce into one request;
   - a small object s between runs is byte-copied and flushes A+B;
   - C..G (10P each) slide down 10P: each pair butts, but a merge would
     overlap, so they stay five requests, flushed as 4 + 1.
   Returns each move's cost, the swapped count, the perf deltas and the
   memmove cost each object would have alone. *)
let drive_swapva_mover cfg =
  let p = Addr.page_size in
  let heap = Helpers.heap ~threshold_pages:10 () in
  let alloc size = Heap.alloc heap ~size ~n_refs:0 ~cls:0 in
  let garbage = alloc (30 * p) in
  let a = alloc (10 * p) and b = alloc (10 * p) in
  let s = alloc 100 in
  let run = List.init 5 (fun _ -> alloc (10 * p)) in
  let plan = Array.of_list (a :: b :: s :: run) in
  let base = garbage.Obj_model.addr in
  a.Obj_model.forward <- base;
  b.Obj_model.forward <- base + (10 * p);
  s.Obj_model.forward <- base + (20 * p);
  List.iter (fun o -> o.Obj_model.forward <- o.Obj_model.addr - (10 * p)) run;
  Array.iteri
    (fun i o ->
      Heap.write_payload heap o ~off:0 (Bytes.make 64 (Char.chr (65 + i))))
    plan;
  let sums = Helpers.checksums heap (Array.to_list plan) in
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let alone =
    Array.map
      (fun o ->
        Svagc_kernel.Memmove.cost_ns ~cold:true machine ~streams:1
          ~len:o.Obj_model.size)
      plan
  in
  let perf = machine.Machine.perf in
  let counters = [ Perf.Runs_coalesced; Swapva_calls; Memmove_calls; Swap_retries ] in
  let before = List.map (Perf.get perf) counters in
  let mover = Svagc_core.Move_object.mover cfg in
  ignore (mover.Svagc_gc.Compact.prologue heap);
  let costs, swapped =
    mover.Svagc_gc.Compact.move_entries heap { objects = plan; streams = 1 }
  in
  ignore (mover.Svagc_gc.Compact.epilogue heap);
  let deltas = List.map2 (fun c b -> Perf.get perf c - b) counters before in
  let last = plan.(Array.length plan - 1) in
  Heap.commit_survivors heap plan ~top:(last.Obj_model.forward + last.Obj_model.size);
  Helpers.assert_checksums heap sums;
  (match Heap.audit heap with
  | Ok () -> ()
  | Error problems -> Alcotest.fail (String.concat "; " problems));
  (costs, swapped, deltas, alone)

let batch4 = { Config.default with Config.aggregation_batch = 4 }

let test_swapva_mover_plan () =
  let costs, swapped, deltas, _ = drive_swapva_mover batch4 in
  Alcotest.(check int) "costs per object" 8 (Array.length costs);
  Alcotest.(check int) "all large objects swapped" 7 swapped;
  Alcotest.(check (list int)) "coalesced, swapva calls, memmoves, retries"
    [ 1; 3; 1; 0 ] deltas;
  Array.iteri
    (fun i c ->
      if not (c > 0.0) then Alcotest.failf "move %d charged %g ns" i c)
    costs

(* Every lock acquisition fails: each of the 6 requests retries 3 times,
   then falls back to byte copies; the failure cost rides only on the
   request's first object. *)
let test_swapva_mover_lock_faults () =
  let spec = Result.get_ok (Svagc_fault.Fault_spec.parse "lock:every=1") in
  let costs, swapped, deltas, alone =
    drive_swapva_mover { batch4 with Config.fault_spec = spec }
  in
  Alcotest.(check int) "nothing swapped" 0 swapped;
  (match deltas with
  | [ _; _; memmoves; retries ] ->
    Alcotest.(check int) "every object byte-copied" 8 memmoves;
    Alcotest.(check int) "3 retries per request" 18 retries
  | _ -> assert false);
  let firsts = [ 0; 3; 4; 5; 6; 7 ] in
  Array.iteri
    (fun i c ->
      if List.mem i firsts then begin
        if not (c > alone.(i)) then
          Alcotest.failf "first object %d carries no failure cost" i
      end
      else Alcotest.(check (float 0.0)) (Printf.sprintf "object %d" i) alone.(i) c)
    costs

(* --- The differential test --- *)

let collect_with collector_of seed =
  let heap = Helpers.heap () in
  let p = Helpers.populate ~seed heap in
  let collector = collector_of heap in
  let cycle = Gc_intf.collect collector in
  (heap, p, cycle)

let layout heap =
  Svagc_util.Vec.to_list
    (Svagc_util.Vec.map
       (fun o -> (o.Obj_model.id, o.Obj_model.addr, Heap.checksum_object heap o))
       (Heap.objects heap))

let test_svagc_equals_memmove_gc () =
  let h1, _, c1 = collect_with (Svagc.collector ~config:Config.default) 7 in
  let h2, _, c2 = collect_with (Svagc.baseline_collector ~threads:4) 7 in
  Alcotest.(check int) "same survivors" c1.Gc_stats.live_objects c2.Gc_stats.live_objects;
  Alcotest.(check bool) "identical layouts and contents" true (layout h1 = layout h2);
  Alcotest.(check bool) "svagc actually swapped" true (c1.Gc_stats.swapped_objects > 0);
  Alcotest.(check int) "memmove never swaps" 0 c2.Gc_stats.swapped_objects;
  Alcotest.(check bool) "svagc copies fewer bytes" true
    (c1.Gc_stats.bytes_copied < c2.Gc_stats.bytes_copied)

let prop_svagc_equals_memmove_gc =
  qtest "svagc == memmove GC on random heaps"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h1, _, _ = collect_with (Svagc.collector ~config:Config.default) seed in
      let h2, _, _ = collect_with (Svagc.baseline_collector ~threads:4) seed in
      layout h1 = layout h2)

let test_svagc_faster_on_large_objects () =
  let _, _, c_sva = collect_with (Svagc.collector ~config:Config.default) 3 in
  let _, _, c_mem = collect_with (Svagc.baseline_collector ~threads:4) 3 in
  Alcotest.(check bool) "compaction faster with SwapVA" true
    (c_sva.Gc_stats.compact_ns < c_mem.Gc_stats.compact_ns)

let test_svagc_threshold_mismatch_rejected () =
  let heap = Helpers.heap ~threshold_pages:16 () in
  Alcotest.(check bool) "mismatch rejected" true
    (try ignore (Svagc.collector ~config:Config.default heap); false
     with Invalid_argument _ -> true)

let test_unoptimized_config_still_correct () =
  let h1, p, _ = collect_with (Svagc.collector ~config:all_off) 11 in
  Helpers.assert_live_set h1 p.Helpers.rooted

(* The all-off config through whole workloads whose compactions issue
   overlapping SwapVA requests: each must take Algorithm 2 and leave a
   heap that passes its audit. *)
let test_all_off_suite_runs () =
  List.iter
    (fun name ->
      let heap = ref None in
      let collector_of h =
        heap := Some h;
        Svagc.collector ~config:all_off h
      in
      let r =
        Svagc_workloads.Runner.run ~heap_factor:1.2 ~steps:8 ~min_gcs:4
          ~machine:(Helpers.machine ~phys_mib:1024 ()) ~collector_of
          (Svagc_workloads.Spec.find name)
      in
      Alcotest.(check bool) (name ^ " collected") true
        (r.Svagc_workloads.Runner.cycles <> []);
      match !heap with
      | None -> Alcotest.failf "%s: no heap" name
      | Some h -> (
        match Heap.audit h with
        | Ok () -> ()
        | Error (e :: _) -> Alcotest.failf "%s: %s" name e
        | Error [] -> Alcotest.failf "%s: audit failed" name))
    [ "CryptoAES"; "Compress" ]

let test_ablation_ordering () =
  (* Each optimization must not make the collector slower. *)
  let pause cfg seed =
    let _, _, c = collect_with (Svagc.collector ~config:cfg) seed in
    Gc_stats.pause_ns c
  in
  let base = all_off in
  let with_pmd = { base with Config.pmd_caching = true } in
  let full = Config.default in
  Alcotest.(check bool) "pmd caching helps" true (pause with_pmd 5 <= pause base 5);
  Alcotest.(check bool) "full config fastest" true (pause full 5 <= pause with_pmd 5)

(* --- Jvm --- *)

let make_jvm ?(heap_mib = 8) ?(collector = Svagc.collector ~config:Config.default) () =
  let machine = Helpers.machine () in
  Jvm.create machine ~name:"test" ~heap_bytes:(heap_mib * 1024 * 1024)
    ~collector_of:collector ()

let test_jvm_alloc_triggers_gc () =
  let jvm = make_jvm ~heap_mib:4 () in
  (* Fill with garbage: allocations must keep succeeding thanks to GCs. *)
  for _ = 1 to 200 do
    ignore (Jvm.alloc jvm ~size:(64 * 1024) ~n_refs:0 ~cls:0)
  done;
  Alcotest.(check bool) "collected at least once" true (Jvm.gc_count jvm >= 1);
  Alcotest.(check bool) "gc time charged" true (Jvm.gc_ns jvm > 0.0)

let test_jvm_out_of_memory () =
  let jvm = make_jvm ~heap_mib:2 () in
  let heap = Jvm.heap jvm in
  Alcotest.check_raises "oom on live overflow" Jvm.Out_of_memory (fun () ->
      for _ = 1 to 100 do
        let o = Jvm.alloc jvm ~size:(128 * 1024) ~n_refs:0 ~cls:0 in
        Heap.add_root heap o
      done)

let test_jvm_tlab_allocation () =
  let jvm = make_jvm () in
  let a = Jvm.alloc ~thread:0 jvm ~size:128 ~n_refs:0 ~cls:0 in
  let b = Jvm.alloc ~thread:1 jvm ~size:128 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "different TLABs, different chunks" true
    (abs (a.Obj_model.addr - b.Obj_model.addr) >= 128);
  Alcotest.(check int) "both registered" 2 (Heap.object_count (Jvm.heap jvm))

let test_jvm_clocks () =
  let jvm = make_jvm () in
  Jvm.charge_app_ns jvm 1000.0;
  Jvm.charge_app_mem jvm ~bytes:9000;
  Alcotest.(check bool) "app time accrues" true (Jvm.app_ns jvm >= 2000.0);
  Alcotest.(check (float 1e-9)) "total = app + gc"
    (Jvm.app_ns jvm +. Jvm.gc_ns jvm)
    (Jvm.total_ns jvm)

let test_jvm_survivors_preserved_across_gcs () =
  let jvm = make_jvm ~heap_mib:6 () in
  let heap = Jvm.heap jvm in
  let keep =
    List.init 8 (fun i ->
        let o = Jvm.alloc jvm ~size:(48 * 1024) ~n_refs:0 ~cls:0 in
        Heap.write_payload heap o ~off:0 (Bytes.make 32 (Char.chr (65 + i)));
        Heap.add_root heap o;
        (o, Heap.checksum_object heap o))
  in
  for _ = 1 to 300 do
    ignore (Jvm.alloc jvm ~size:(64 * 1024) ~n_refs:0 ~cls:0)
  done;
  Alcotest.(check bool) "several GCs ran" true (Jvm.gc_count jvm >= 2);
  List.iter
    (fun (o, c) ->
      Alcotest.(check int64) "survivor bytes intact" c (Heap.checksum_object heap o))
    keep

(* --- Multi_jvm --- *)

let co_run machine ~instances =
  Multi_jvm.create machine ~instances ~spawn:(fun ~index m ->
      Jvm.create m
        ~name:(Printf.sprintf "jvm-%d" index)
        ~heap_bytes:(2 * 1024 * 1024)
        ~collector_of:(Svagc.collector ~config:Config.default)
        ())

let test_multi_jvm_contention () =
  let jvms = Multi_jvm.jvms (co_run (Helpers.machine ()) ~instances:4) in
  Alcotest.(check int) "instances" 4 (Array.length jvms);
  Array.iter
    (fun jvm ->
      Alcotest.(check int) "co-runners" 4
        (Svagc_kernel.Process.co_runners (Jvm.proc jvm)))
    jvms

(* The co-run loop is step-major: every instance takes step s before any
   takes s + 1.  Its sched_* accounting: 3 entries + 3 * 4 re-entries
   scheduled, 15 steps dispatched, nothing cancelled. *)
let test_multi_jvm_step_major () =
  let machine = Helpers.machine () in
  let multi = co_run machine ~instances:3 in
  let order = ref [] in
  Multi_jvm.run_round_robin multi ~steps:5 ~step:(fun ~index _jvm s ->
      order := (index, s) :: !order);
  Alcotest.(check (list (pair int int)))
    "step-major"
    (List.concat (List.init 5 (fun s -> List.init 3 (fun i -> (i, s)))))
    (List.rev !order);
  let get c = Perf.get machine.Machine.perf c in
  Alcotest.(check int) "sched_scheduled" 15 (get Sched_scheduled);
  Alcotest.(check int) "sched_dispatched" 15 (get Sched_dispatched);
  Alcotest.(check int) "sched_cancelled" 0 (get Sched_cancelled)

let test_multi_jvm_bandwidth_division () =
  let machine = Helpers.machine () in
  let cost streams =
    Svagc_kernel.Memmove.cost_ns ~cold:true machine ~streams ~len:(1 lsl 20)
  in
  Alcotest.(check bool) "contended copies slower" true
    (cost 16 > cost 1 *. 1.2)

(* On xeon-6130 one of 16 streams gets 64 / 16 = 4 B/ns, under the
   9 B/ns DRAM copy rate a solo stream gets: the same application
   traffic costs a co-running JVM more. *)
let test_multi_jvm_app_mem_contended () =
  let app_mem jvm =
    let before = Jvm.app_ns jvm in
    Jvm.charge_app_mem jvm ~bytes:(1 lsl 20);
    Jvm.app_ns jvm -. before
  in
  let app_mem_at instances =
    app_mem (Multi_jvm.jvms (co_run (Helpers.machine ()) ~instances)).(0)
  in
  let solo = app_mem_at 1 and crowded = app_mem_at 16 in
  Alcotest.(check bool) "co-run application copies slower" true
    (crowded > solo *. 1.2)

let () =
  Alcotest.run "svagc_core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults valid" `Quick test_config_defaults_valid;
          Alcotest.test_case "bad values" `Quick test_config_bad_values;
        ] );
      ( "move_object",
        [
          Alcotest.test_case "threshold" `Quick test_should_swap_threshold;
          Alcotest.test_case "swapva mover plan" `Quick test_swapva_mover_plan;
          Alcotest.test_case "swapva mover lock faults" `Quick
            test_swapva_mover_lock_faults;
        ] );
      ( "differential",
        [
          Alcotest.test_case "svagc == memmove GC" `Quick test_svagc_equals_memmove_gc;
          Alcotest.test_case "svagc faster" `Quick test_svagc_faster_on_large_objects;
          Alcotest.test_case "threshold mismatch" `Quick
            test_svagc_threshold_mismatch_rejected;
          Alcotest.test_case "unoptimized correct" `Quick
            test_unoptimized_config_still_correct;
          Alcotest.test_case "all-off suite runs" `Quick
            test_all_off_suite_runs;
          Alcotest.test_case "ablation ordering" `Quick test_ablation_ordering;
          prop_svagc_equals_memmove_gc;
        ] );
      ( "jvm",
        [
          Alcotest.test_case "alloc triggers gc" `Quick test_jvm_alloc_triggers_gc;
          Alcotest.test_case "out of memory" `Quick test_jvm_out_of_memory;
          Alcotest.test_case "tlab allocation" `Quick test_jvm_tlab_allocation;
          Alcotest.test_case "clocks" `Quick test_jvm_clocks;
          Alcotest.test_case "survivors preserved" `Quick
            test_jvm_survivors_preserved_across_gcs;
        ] );
      ( "multi_jvm",
        [
          Alcotest.test_case "contention level" `Quick test_multi_jvm_contention;
          Alcotest.test_case "bandwidth division" `Quick test_multi_jvm_bandwidth_division;
          Alcotest.test_case "co-run application traffic" `Quick
            test_multi_jvm_app_mem_contended;
          Alcotest.test_case "step-major order" `Quick test_multi_jvm_step_major;
        ] );
    ]
