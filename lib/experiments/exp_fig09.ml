open Svagc_vmem
module Swapva = Svagc_kernel.Swapva
module Process = Svagc_kernel.Process
module Shootdown = Svagc_kernel.Shootdown
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type point = {
  cores : int;
  unoptimized_ns : float;
  optimized_ns : float;
  unoptimized_ipis : int;
  optimized_ipis : int;
}

let storm ~cores ~objects ~pages ~optimized =
  let machine = Machine.create ~ncores:cores ~phys_mib:1024 Cost_model.xeon_6130 in
  let proc = Process.create machine in
  let aspace = Process.aspace proc in
  let src = 1 lsl 30 and dst = (1 lsl 30) + (1 lsl 29) in
  Address_space.map_range aspace ~va:src ~pages:(objects * pages);
  Address_space.map_range aspace ~va:dst ~pages:(objects * pages);
  let total = ref 0.0 in
  if optimized then begin
    (* Algorithm 4: pin, one all-core shootdown, then local flushes. *)
    total := !total +. Process.pin proc ~core:0;
    total :=
      !total
      +. Shootdown.cycle_prologue machine
           ~asid:(Address_space.asid aspace)
           ~core:0 Shootdown.Local_pinned
  end;
  let opts =
    if optimized then Swapva.default_opts
    else { Swapva.default_opts with flush = Shootdown.Broadcast_per_call }
  in
  for i = 0 to objects - 1 do
    let off = i * pages * Addr.page_size in
    total :=
      !total +. Swapva.swap proc ~opts ~src:(src + off) ~dst:(dst + off) ~pages
  done;
  if optimized then total := !total +. Process.unpin proc;
  (!total, Perf.get machine.Machine.perf Ipis_sent)

let measure ?(objects = 100) ?(pages_per_object = 16) () =
  List.map
    (fun cores ->
      let unoptimized_ns, unoptimized_ipis =
        storm ~cores ~objects ~pages:pages_per_object ~optimized:false
      in
      let optimized_ns, optimized_ipis =
        storm ~cores ~objects ~pages:pages_per_object ~optimized:true
      in
      { cores; unoptimized_ns; optimized_ns; unoptimized_ipis; optimized_ipis })
    [ 1; 2; 4; 8; 16; 32 ]

let run ?quick:_ () =
  Report.section
    "Fig. 9 - Multi-core optimizations to SwapVA (100 objects, Xeon 6130)";
  let points = measure () in
  Table.print
    ~headers:
      [ "cores"; "unoptimized"; "optimized"; "speedup"; "IPIs unopt"; "IPIs opt" ]
    (List.map
       (fun p ->
         [
           string_of_int p.cores;
           Report.ns p.unoptimized_ns;
           Report.ns p.optimized_ns;
           Report.speedup (p.unoptimized_ns /. p.optimized_ns);
           string_of_int p.unoptimized_ipis;
           string_of_int p.optimized_ipis;
         ])
       points);
  let p32 = List.nth points (List.length points - 1) in
  Report.paper_vs_measured
    [
      ( "IPI reduction (Eq. 2, gain = l)",
        "100x",
        Printf.sprintf "%.0fx"
          (float_of_int p32.unoptimized_ipis /. float_of_int p32.optimized_ipis) );
      ( "cost gap grows with cores",
        "yes",
        Printf.sprintf "%.1fx @2 cores -> %.1fx @32 cores"
          ((List.nth points 1).unoptimized_ns /. (List.nth points 1).optimized_ns)
          (p32.unoptimized_ns /. p32.optimized_ns) );
    ]
