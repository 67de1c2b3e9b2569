(* Scenario: a multi-tenant analytics host (the paper's Figs. 2 and 14).

   Sixteen single-threaded cache services co-run on one 32-core machine
   and share its memory bandwidth.  Under a byte-copy collector both the
   applications and their GCs fight over DRAM; under SVAGC the collector
   gets out of the bandwidth market and only the applications pay for the
   crowding.

   Run with:  dune exec examples/multi_tenant.exe *)

open Svagc_vmem
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

let steps = 40

let co_run ~instances collector_of =
  let machine =
    Machine.create ~ncores:32 ~phys_mib:(128 + (instances * 24)) Cost_model.xeon_6130
  in
  let workload = Svagc_workloads.Lru_cache.workload in
  let steppers = Array.make instances (fun () -> ()) in
  let multi =
    Multi_jvm.create machine ~instances ~spawn:(fun ~index machine ->
        let jvm =
          Runner.make_jvm ~machine ~collector_of workload
        in
        steppers.(index) <-
          workload.Workload.setup jvm (Svagc_util.Rng.create ~seed:(77 + index));
        jvm)
  in
  for _ = 1 to steps do
    Array.iter (fun step -> step ()) steppers
  done;
  (Multi_jvm.avg_app_ns multi, Multi_jvm.avg_gc_ns multi)

let sweep name collector_of =
  Report.subsection name;
  let solo_app, solo_gc = co_run ~instances:1 collector_of in
  Table.print
    ~headers:[ "tenants"; "avg app"; "avg GC"; "app +%"; "GC +%" ]
    (List.map
       (fun instances ->
         let app, gc = co_run ~instances collector_of in
         [
           string_of_int instances;
           Report.ns app;
           Report.ns gc;
           Printf.sprintf "%.0f" (100.0 *. (app -. solo_app) /. solo_app);
           Printf.sprintf "%.0f" (100.0 *. (gc -. solo_gc) /. solo_gc);
         ])
       [ 1; 4; 16 ])

let () =
  Report.section "Multi-tenant host: 1 -> 16 co-running cache services";
  sweep "ParallelGC (GC competes for bandwidth)" (fun heap ->
      Svagc_gc.Parallel_gc.collector ~threads:4 heap);
  sweep "SVAGC (GC sits out of the bandwidth market)" (fun heap ->
      Svagc_core.Svagc.collector ~config:Svagc_core.Config.default heap);
  print_endline
    "\nUnder contention the application slows either way, but only the\n\
     byte-copy collector's GC time balloons with it (paper Figs. 2 vs 14)."
