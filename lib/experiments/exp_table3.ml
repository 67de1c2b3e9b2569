(** Table III — cache and DTLB miss rates with memmove vs SwapVA
    compaction at 1.2x (2x) minimum heap.

    The instrumented runs push the mutator's accesses and the byte-copy
    GC's streams through the machine's LLC and per-core TLB models;
    PTE-swapped moves touch no data lines, so SwapVA pollutes neither.
    Paper geomeans: cache misses 69.32% -> 65.71% (1.2x) and DTLB misses
    1.28% -> 0.52%. *)

open Svagc_vmem
module Runner = Svagc_workloads.Runner
module Jvm = Svagc_core.Jvm
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type cellpair = {
  cache_pct : float;
  dtlb_pct : float;
}

type row = {
  benchmark : string;
  memmove_12 : cellpair;
  swapva_12 : cellpair;
  memmove_20 : cellpair;
  swapva_20 : cellpair;
}

let measure_core = 0

let collector_of_measured ~swapva heap =
  if swapva then
    let cfg = Svagc_core.Config.default in
    let mover = Svagc_core.Move_object.mover ~measure_core cfg in
    Svagc_gc.Lisp2.collector
      (Svagc_gc.Lisp2.config ~label:"svagc-measured"
         ~threads:cfg.Svagc_core.Config.gc_threads ~mover ())
      heap
  else
    Svagc_gc.Lisp2.collector
      (Svagc_gc.Lisp2.config ~label:"memmove-measured" ~threads:4
         ~mover:(Svagc_gc.Compact.memmove_mover_measured ~core:measure_core)
         ())
      heap

let instrumented_run ~swapva ~heap_factor workload =
  let machine = Machine.create ~phys_mib:1024 Cost_model.xeon_6130 in
  let jvm =
    Runner.make_jvm ~heap_factor ~machine
      ~collector_of:(collector_of_measured ~swapva) workload
  in
  Jvm.set_measure_core jvm (Some measure_core);
  let rng = Svagc_util.Rng.create ~seed:11 in
  let step = workload.Workload.setup jvm rng in
  (* Warm the models on the initial population, then measure steady
     state. *)
  Cache_sim.reset_stats machine.Machine.llc;
  Tlb.reset_stats (Machine.core machine measure_core).Machine.tlb;
  let executed = ref 0 in
  while !executed < 30 || (Jvm.gc_count jvm < 3 && !executed < 400) do
    step ();
    incr executed
  done;
  let cache_pct = Cache_sim.miss_rate machine.Machine.llc in
  let tlb_stats = Tlb.stats (Machine.core machine measure_core).Machine.tlb in
  let dtlb_pct =
    let total = tlb_stats.Tlb.hits + tlb_stats.Tlb.misses in
    if total = 0 then 0.0
    else 100.0 *. float_of_int tlb_stats.Tlb.misses /. float_of_int total
  in
  { cache_pct; dtlb_pct }

let measure ~quick =
  List.map
    (fun w ->
      {
        benchmark = w.Workload.name;
        memmove_12 = instrumented_run ~swapva:false ~heap_factor:1.2 w;
        swapva_12 = instrumented_run ~swapva:true ~heap_factor:1.2 w;
        memmove_20 = instrumented_run ~swapva:false ~heap_factor:2.0 w;
        swapva_20 = instrumented_run ~swapva:true ~heap_factor:2.0 w;
      })
    (Exp_common.suite ~quick)

let geomean_of rows f =
  Svagc_util.Num_util.geomean (List.map f rows)

let run ?(quick = false) () =
  Report.section
    "Table III - Cache & DTLB misses at 1.2x (2x) min heap, memmove vs SwapVA";
  let rows = measure ~quick in
  Table.print
    ~headers:
      [ "benchmark"; "cache% memmove"; "cache% swapva"; "dtlb% memmove";
        "dtlb% swapva" ]
    (List.map
       (fun r ->
         [
           r.benchmark;
           Printf.sprintf "%.2f(%.2f)" r.memmove_12.cache_pct r.memmove_20.cache_pct;
           Printf.sprintf "%.2f(%.2f)" r.swapva_12.cache_pct r.swapva_20.cache_pct;
           Printf.sprintf "%.3f(%.3f)" r.memmove_12.dtlb_pct r.memmove_20.dtlb_pct;
           Printf.sprintf "%.3f(%.3f)" r.swapva_12.dtlb_pct r.swapva_20.dtlb_pct;
         ])
       rows);
  let g_cache_mm = geomean_of rows (fun r -> r.memmove_12.cache_pct) in
  let g_cache_sv = geomean_of rows (fun r -> r.swapva_12.cache_pct) in
  let g_dtlb_mm = geomean_of rows (fun r -> r.memmove_12.dtlb_pct) in
  let g_dtlb_sv = geomean_of rows (fun r -> r.swapva_12.dtlb_pct) in
  Report.paper_vs_measured
    [
      ( "geomean cache misses (1.2x)",
        "69.32% -> 65.71%",
        Printf.sprintf "%.2f%% -> %.2f%%" g_cache_mm g_cache_sv );
      ( "geomean DTLB misses (1.2x)",
        "1.28% -> 0.52%",
        Printf.sprintf "%.3f%% -> %.3f%%" g_dtlb_mm g_dtlb_sv );
      ( "SwapVA pollutes less",
        "yes",
        if g_cache_sv <= g_cache_mm && g_dtlb_sv <= g_dtlb_mm then "yes" else "mixed" );
    ]
