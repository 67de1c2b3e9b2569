(* Benchmark for the memory-pressure headline: compacting through swapped
   pages.  At 0.5 residency half of a mapped range lives on the simulated
   swap device; SwapVA exchanges the non-present PTEs as swap-slot handles
   (no swap-in), while memmove must demand-fault every swapped page back
   in before copying.  Both engines charge *simulated* cost, which is
   deterministic, so the gate (SwapVA >= 5x cheaper than
   memmove-with-faults) holds in --quick mode too.

   `dune exec bench/reclaim_bench.exe` writes BENCH_reclaim.json
   (canonical JSON, see --output).  `--quick` trims the sizes for CI
   smoke runs. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Fault_handler = Svagc_kernel.Fault_handler
module Json = Svagc_trace.Json

let base = 1 lsl 32

(* A process with [2 * pages] mapped and the machine capped at [pages]
   resident frames: attach BEFORE mapping so every page is LRU-tracked
   from birth and kswapd evicts the cold (first-mapped) half as mapping
   crosses the watermark — residency settles at 0.5 with the low half of
   the range swapped out and the high half resident. *)
let fixture ~pages =
  let phys_mib = (2 * pages / 256) + 64 in
  let machine = Machine.create ~ncores:4 ~phys_mib Cost_model.xeon_6130 in
  ignore (Fault_handler.attach machine ~limit_frames:pages ());
  let proc = Process.create machine in
  Address_space.map_range (Process.aspace proc) ~va:base ~pages:(2 * pages);
  (machine, proc)

(* Reclaim cost (fault-ins, evictions) accrued by [f] but not already
   folded into its return value. *)
let with_drained machine f =
  let drain () =
    match machine.Machine.reclaim with
    | Some r -> r.Machine.ri_drain_ns ()
    | None -> 0.0
  in
  ignore (drain ());
  let ns = f () in
  ns +. drain ()

let bench_size ~pages =
  Printf.printf "%8d pages:%!" pages;
  let len = pages * Addr.page_size in
  let req =
    { Swapva.src = base; dst = base + (pages * Addr.page_size); pages }
  in
  (* Separate fixtures: memmove's fault-ins destroy the half-swapped
     state that the SwapVA measurement must also start from. *)
  let swap_machine, swap_proc = fixture ~pages in
  let faults_before = Perf.get swap_machine.Machine.perf Major_faults in
  let swapva_ns =
    with_drained swap_machine (fun () ->
        Swapva.swap_disjoint_flat swap_proc ~pmd_caching:true ~leaf_swap:false
          req)
  in
  let swapva_faults =
    Perf.get swap_machine.Machine.perf Major_faults - faults_before
  in
  Printf.printf " swapva%!";
  let mm_machine, mm_proc = fixture ~pages in
  let mm_aspace = Process.aspace mm_proc in
  let faults_before = Perf.get mm_machine.Machine.perf Major_faults in
  let memmove_ns =
    with_drained mm_machine (fun () ->
        Memmove.move mm_aspace ~src:base ~dst:req.Swapva.dst ~len)
  in
  let memmove_faults =
    Perf.get mm_machine.Machine.perf Major_faults - faults_before
  in
  Printf.printf " memmove\n%!";
  let speedup = if swapva_ns > 0.0 then memmove_ns /. swapva_ns else 0.0 in
  ( speedup,
    Json.Obj
      [
        ("pages", Json.Int pages);
        ("bytes_per_side", Json.Int len);
        ("residency", Json.Float 0.5);
        ( "swapva_slot_swap",
          Json.Obj
            [
              ("simulated_ns", Json.Float swapva_ns);
              ("major_faults", Json.Int swapva_faults);
            ] );
        ( "memmove_with_faults",
          Json.Obj
            [
              ("simulated_ns", Json.Float memmove_ns);
              ("major_faults", Json.Int memmove_faults);
            ] );
        ("sim_speedup_swapva_vs_memmove", Json.Float speedup);
      ] )

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let out =
    let rec find = function
      | ("-o" | "--output") :: file :: _ -> file
      | _ :: tl -> find tl
      | [] -> "BENCH_reclaim.json"
    in
    find args
  in
  let sizes = if quick then [ 1024 ] else [ 1024; 16384; 65536 ] in
  let results = List.map (fun pages -> bench_size ~pages) sizes in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "reclaim_bench");
        ("unit", Json.Str "simulated ns per operation (deterministic)");
        ("quick", Json.Bool quick);
        ("sizes", Json.List (List.map snd results));
      ]
  in
  let oc = open_out out in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  (* The costs are simulated and deterministic, so the fast-path gate is
     safe to enforce even in --quick smoke runs. *)
  List.iter
    (fun (speedup, json) ->
      let pages =
        match Json.member "pages" json with Some (Json.Int p) -> p | _ -> 0
      in
      Printf.printf "%8d pages: slot-swap vs memmove-with-faults: %.1fx\n"
        pages speedup;
      if speedup < 5.0 then begin
        Printf.eprintf "FAIL: expected >= 5x at %d pages, got %.2fx\n" pages
          speedup;
        exit 1
      end)
    results
