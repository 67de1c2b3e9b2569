open Svagc_vmem
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Process = Svagc_kernel.Process
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type point = {
  pages : int;
  memmove_ns : float;
  swapva_ns : float;
}

type sweep = {
  machine : string;
  points : point list;
  crossover_pages : int option;
}

let sweep_machine cost =
  let points =
    List.map
      (fun pages ->
        let machine = Machine.create ~phys_mib:1024 cost in
        let proc = Process.create machine in
        let aspace = Process.aspace proc in
        let src = 1 lsl 30 and dst = (1 lsl 30) + (1 lsl 29) in
        Address_space.map_range aspace ~va:src ~pages;
        Address_space.map_range aspace ~va:dst ~pages;
        let len = pages * Addr.page_size in
        let memmove_ns = Memmove.move ~streams:1 aspace ~src ~dst ~len in
        let swapva_ns =
          Swapva.swap proc ~opts:Swapva.default_opts ~src ~dst ~pages
        in
        { pages; memmove_ns; swapva_ns })
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12; 14; 16; 20; 24; 32; 48; 64 ]
  in
  let crossover_pages =
    List.find_opt (fun p -> p.swapva_ns < p.memmove_ns) points
    |> Option.map (fun p -> p.pages)
  in
  { machine = cost.Cost_model.name; points; crossover_pages }

let measure () = List.map sweep_machine [ Cost_model.xeon_6130; Cost_model.xeon_6240 ]

let run ?quick:_ () =
  Report.section "Fig. 10 - SwapVA threshold vs CPU/memory configuration";
  let sweeps = measure () in
  List.iter
    (fun s ->
      Report.subsection s.machine;
      Table.print
        ~headers:[ "pages"; "memmove"; "swapva"; "winner" ]
        (List.map
           (fun p ->
             [
               string_of_int p.pages;
               Report.ns p.memmove_ns;
               Report.ns p.swapva_ns;
               (if p.swapva_ns < p.memmove_ns then "swapva" else "memmove");
             ])
           s.points);
      Report.kv "crossover"
        (match s.crossover_pages with
        | Some p -> Printf.sprintf "%d pages" p
        | None -> "none in range"))
    sweeps;
  Report.paper_vs_measured
    (List.map
       (fun s ->
         ( s.machine ^ " break-even",
           "~10 pages",
           match s.crossover_pages with
           | Some p -> Printf.sprintf "%d pages" p
           | None -> "none" ))
       sweeps)
