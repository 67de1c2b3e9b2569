(** Fig. 13 — maximum full-GC latency (the pause-sensitive metric).
    Paper: SVAGC beats ParallelGC / Shenandoah by 4.49x / 18.25x at 1.2x
    heap and 3.60x / 12.24x at 2x.  The table is Fig. 12's over the
    maximum pause. *)

module Runner = Svagc_workloads.Runner
module Gc_stats = Svagc_gc.Gc_stats
module Report = Svagc_metrics.Report

let run ?(quick = false) () =
  Report.section "Fig. 13 - Maximum full-GC latency vs Shenandoah/ParallelGC";
  let print =
    Exp_fig12.print_factor ~quick ~stat:"max"
      ~metric:(fun r -> r.Runner.summary.Gc_stats.max_pause_ns)
  in
  print ~heap_factor:1.2 ~label:"(a) 1.2x minimum heap" ~paper_par:"4.49x"
    ~paper_shen:"18.25x";
  print ~heap_factor:2.0 ~label:"(b) 2x minimum heap" ~paper_par:"3.60x"
    ~paper_shen:"12.24x"
