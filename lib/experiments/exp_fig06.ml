open Svagc_vmem
module Swapva = Svagc_kernel.Swapva
module Process = Svagc_kernel.Process
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type point = {
  pages_per_request : int;
  separated_ns : float;
  aggregated_ns : float;
  improvement_pct : float;
}

(* Map two disjoint arenas and build N (src, dst) request pairs of the
   given size. *)
let build_requests proc ~requests ~pages =
  let aspace = Process.aspace proc in
  let arena = 16 * 1024 * 1024 in
  let src_base = 1 lsl 30 and dst_base = (1 lsl 30) + (1 lsl 28) in
  let span = requests * pages * Addr.page_size in
  if span > arena then invalid_arg "Exp_fig06: arena too small";
  Address_space.map_range aspace ~va:src_base ~pages:(requests * pages);
  Address_space.map_range aspace ~va:dst_base ~pages:(requests * pages);
  List.init requests (fun i ->
      {
        Swapva.src = src_base + (i * pages * Addr.page_size);
        dst = dst_base + (i * pages * Addr.page_size);
        pages;
      })

let opts =
  (* Pure single-core microbenchmark: PMD caching on, local flushing (the
     i5 run in the paper is a pinned single-threaded driver). *)
  Swapva.default_opts

let measure ?(requests = 64) () =
  List.map
    (fun pages ->
      let machine = Machine.create ~phys_mib:512 Cost_model.i5_7600 in
      let proc = Process.create machine in
      let reqs = build_requests proc ~requests ~pages in
      let separated_ns = (Swapva.swap_separated proc ~opts reqs).Swapva.ns in
      (* Swap back so both measurements see identical mappings. *)
      let aggregated_ns = (Swapva.swap_aggregated proc ~opts reqs).Swapva.ns in
      {
        pages_per_request = pages;
        separated_ns;
        aggregated_ns;
        improvement_pct =
          100.0 *. (separated_ns -. aggregated_ns) /. separated_ns;
      })
    [ 1; 2; 4; 8; 16; 32; 64 ]

let run ?quick:_ () =
  Report.section "Fig. 6 - Aggregated vs separated SwapVA calls (i5-7600)";
  let points = measure () in
  Table.print
    ~headers:[ "pages/request"; "separated"; "aggregated"; "improvement" ]
    (List.map
       (fun p ->
         [
           string_of_int p.pages_per_request;
           Report.ns p.separated_ns;
           Report.ns p.aggregated_ns;
           Report.pct p.improvement_pct;
         ])
       points);
  Report.note
    "paper: aggregation benefit is largest for small requests and fades as \
     request size grows";
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  Report.paper_vs_measured
    [
      ( "benefit direction",
        "decreasing with request size",
        Printf.sprintf "%.1f%% @1p -> %.1f%% @64p" first.improvement_pct
          last.improvement_pct );
    ]
