open Svagc_vmem
module Swapva = Svagc_kernel.Swapva
module Process = Svagc_kernel.Process
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type point = {
  pages : int;
  uncached_ns : float;
  cached_ns : float;
  improvement_pct : float;
}

let swap_once ~pmd_caching ~pages =
  let machine = Machine.create ~phys_mib:1024 Cost_model.i5_7600 in
  let proc = Process.create machine in
  let aspace = Process.aspace proc in
  let src = 1 lsl 30 and dst = (1 lsl 30) + (1 lsl 29) in
  Address_space.map_range aspace ~va:src ~pages;
  Address_space.map_range aspace ~va:dst ~pages;
  let opts = { Swapva.default_opts with pmd_caching } in
  Swapva.swap proc ~opts ~src ~dst ~pages

let measure () =
  List.map
    (fun pages ->
      let uncached_ns = swap_once ~pmd_caching:false ~pages in
      let cached_ns = swap_once ~pmd_caching:true ~pages in
      {
        pages;
        uncached_ns;
        cached_ns;
        improvement_pct = 100.0 *. (uncached_ns -. cached_ns) /. uncached_ns;
      })
    [ 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048 ]

let run ?quick:_ () =
  Report.section "Fig. 8 - Benefits of PMD caching (i5-7600)";
  let points = measure () in
  Table.print
    ~headers:[ "pages"; "no pmd cache"; "pmd cache"; "improvement" ]
    (List.map
       (fun p ->
         [
           string_of_int p.pages;
           Report.ns p.uncached_ns;
           Report.ns p.cached_ns;
           Report.pct p.improvement_pct;
         ])
       points);
  let multi = List.filter (fun p -> p.pages >= 16) points in
  let avg =
    List.fold_left (fun acc p -> acc +. p.improvement_pct) 0.0 multi
    /. float_of_int (List.length multi)
  in
  let best = List.fold_left (fun acc p -> Float.max acc p.improvement_pct) 0.0 points in
  Report.paper_vs_measured
    [
      ("max improvement", "52.48%", Report.pct best);
      ("avg improvement (multi-page)", "36.73%", Report.pct avg);
    ]
