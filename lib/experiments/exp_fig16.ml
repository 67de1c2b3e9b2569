(** Fig. 16 — application throughput of SVAGC vs ParallelGC and
    Shenandoah.  Paper: SVAGC wins by an average of 30.95% / 37.27% at
    1.2x minimum heap, dropping to 15.26% / 16.79% at 2x — the larger the
    heap, the rarer the costly full GCs. *)

module Runner = Svagc_workloads.Runner
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

let print_factor ~quick ~heap_factor ~label ~paper_par ~paper_shen =
  Report.subsection label;
  let rows = Exp_common.baseline_rows ~quick ~heap_factor in
  Table.print
    ~headers:[ "benchmark"; "Shen t/ms"; "Par t/ms"; "SVAGC t/ms"; "vs Par"; "vs Shen" ]
    (List.map
       (fun (name, shen, par, sva) ->
         [
           name;
           Printf.sprintf "%.3f" shen.Runner.throughput;
           Printf.sprintf "%.3f" par.Runner.throughput;
           Printf.sprintf "%.3f" sva.Runner.throughput;
           Report.pct
             (Svagc_util.Num_util.pct_change ~baseline:par.Runner.throughput
                ~value:sva.Runner.throughput);
           Report.pct
             (Svagc_util.Num_util.pct_change ~baseline:shen.Runner.throughput
                ~value:sva.Runner.throughput);
         ])
       rows);
  let avg f =
    let xs = List.map f rows in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let avg_par =
    avg (fun (_, _, par, sva) ->
        Svagc_util.Num_util.pct_change ~baseline:par.Runner.throughput
          ~value:sva.Runner.throughput)
  in
  let avg_shen =
    avg (fun (_, shen, _, sva) ->
        Svagc_util.Num_util.pct_change ~baseline:shen.Runner.throughput
          ~value:sva.Runner.throughput)
  in
  Report.paper_vs_measured
    [
      ("avg throughput gain vs ParallelGC", paper_par, Report.pct avg_par);
      ("avg throughput gain vs Shenandoah", paper_shen, Report.pct avg_shen);
    ]

let run ?(quick = false) () =
  Report.section "Fig. 16 - Throughput of SVAGC vs Shenandoah/ParallelGC";
  print_factor ~quick ~heap_factor:1.2 ~label:"(a) 1.2x minimum heap"
    ~paper_par:"30.95%" ~paper_shen:"37.27%";
  print_factor ~quick ~heap_factor:2.0 ~label:"(b) 2x minimum heap"
    ~paper_par:"15.26%" ~paper_shen:"16.79%"
