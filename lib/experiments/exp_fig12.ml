(** Fig. 12 — average full-GC latency of SVAGC vs Shenandoah and
    ParallelGC at 1.2x (a) and 2x (b) minimum heap.  Paper: SVAGC is
    3.82x / 16.05x better on average at 1.2x, and 2.74x / 13.62x at 2x. *)

module Runner = Svagc_workloads.Runner
module Gc_stats = Svagc_gc.Gc_stats
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

(* One heap factor's table of a pause statistic ([stat] names it: "avg" or
   "max") and its geomean gains; Fig. 13 prints the same with "max". *)
let print_factor ~quick ~stat ~metric ~heap_factor ~label ~paper_par ~paper_shen =
  Report.subsection label;
  let rows = Exp_common.baseline_rows ~quick ~heap_factor in
  Table.print
    ~headers:[ "benchmark"; "Shenandoah"; "ParallelGC"; "SVAGC"; "vs Par"; "vs Shen" ]
    (List.map
       (fun (name, shen, par, sva) ->
         [
           name;
           Report.ns (metric shen);
           Report.ns (metric par);
           Report.ns (metric sva);
           Report.speedup (metric par /. metric sva);
           Report.speedup (metric shen /. metric sva);
         ])
       rows);
  let pairs_par = List.map (fun (_, _, par, sva) -> (par, sva)) rows in
  let pairs_shen = List.map (fun (_, shen, _, sva) -> (shen, sva)) rows in
  let g_par = Exp_common.geomean_ratio pairs_par ~metric in
  let g_shen = Exp_common.geomean_ratio pairs_shen ~metric in
  Report.paper_vs_measured
    [
      (stat ^ " latency gain vs ParallelGC", paper_par, Report.speedup g_par);
      (stat ^ " latency gain vs Shenandoah", paper_shen, Report.speedup g_shen);
    ]

let run ?(quick = false) () =
  Report.section "Fig. 12 - Average full-GC latency vs Shenandoah/ParallelGC";
  let print =
    print_factor ~quick ~stat:"avg"
      ~metric:(fun r -> r.Runner.summary.Gc_stats.avg_pause_ns)
  in
  print ~heap_factor:1.2 ~label:"(a) 1.2x minimum heap" ~paper_par:"3.82x"
    ~paper_shen:"16.05x";
  print ~heap_factor:2.0 ~label:"(b) 2x minimum heap" ~paper_par:"2.74x"
    ~paper_shen:"13.62x"
