(* Host wall-clock microbenchmark for the disjoint-swap data paths:
   simulated memmove (byte copies) vs the per-page SwapVA reference vs the
   flat SwapVA engine (bitset prechecks, scratch run buffers, memoized
   bulk charges), at 1k / 64k / 512k pages per side.  Memmove is timed
   only up to [memmove_max_pages]: it copies frame to frame, but every
   destination frame it writes materializes a real 4 KiB page, so 512k
   pages per side would need several GB of host memory.

   Both SwapVA engines charge bit-identical *simulated* cost (asserted
   here and recorded in the output); what this benchmark measures is how
   much *host* time the simulator itself spends, which is what the flat
   engine exists to cut.

   `dune exec bench/swap_bench.exe` writes BENCH_swap.json (canonical
   JSON, see --output).  `--quick` trims the sizes for CI smoke runs. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Json = Svagc_trace.Json

let base = 1 lsl 32

(* Grow the iteration count until the measurement dwarfs Sys.time's
   granularity, then take the best of several samples: the fixtures keep
   gigabytes live, so any single sample can eat a major-GC slice or a
   page-fault storm that has nothing to do with the measured loop.  Every
   operation here is its own inverse or idempotent enough to repeat. *)
let time_per_op f =
  Gc.full_major ();
  ignore (Sys.opaque_identity (f ()));
  let rec calibrate iters =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Sys.time () -. t0 in
    if dt >= 0.05 || iters >= 1_000_000 then (iters, dt /. float_of_int iters)
    else calibrate (iters * 4)
  in
  let iters, first = calibrate 1 in
  let best = ref first in
  let extra_samples = if first >= 1.0 then 1 else 5 in
  for _ = 1 to extra_samples do
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let per = (Sys.time () -. t0) /. float_of_int iters in
    if per < !best then best := per
  done;
  !best

let memmove_max_pages = 65536

let fixture ~pages =
  (* Both ranges plus slack for page tables and metadata. *)
  let phys_mib = (2 * pages / 256) + 64 in
  let machine = Machine.create ~ncores:4 ~phys_mib Cost_model.xeon_6130 in
  let proc = Process.create machine in
  Address_space.map_range (Process.aspace proc) ~va:base ~pages:(2 * pages);
  proc

let bench_size ~pages =
  Printf.printf "%8d pages:%!" pages;
  let req =
    { Swapva.src = base; dst = base + (pages * Addr.page_size); pages }
  in
  let len = pages * Addr.page_size in
  let proc = fixture ~pages in
  let aspace = Process.aspace proc in
  let per_page_sim = ref 0.0 in
  let per_page_host =
    time_per_op (fun () ->
        per_page_sim := Swapva.swap_disjoint_per_page proc ~pmd_caching:true req)
  in
  Printf.printf " per-page%!";
  let flat_sim = ref 0.0 in
  let flat_host =
    time_per_op (fun () ->
        flat_sim :=
          Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false req)
  in
  Printf.printf " flat%!";
  let memmove =
    if pages > memmove_max_pages then []
    else begin
      let host =
        time_per_op (fun () ->
            ignore (Memmove.move aspace ~src:base ~dst:req.Swapva.dst ~len))
      in
      Printf.printf " memmove%!";
      [
        ("memmove", Json.Obj [ ("host_ns_per_op", Json.Float (host *. 1e9)) ]);
        ("host_speedup_flat_vs_memmove", Json.Float (host /. flat_host));
      ]
    end
  in
  print_newline ();
  if !per_page_sim <> !flat_sim then
    failwith
      (Printf.sprintf
         "simulated cost diverged at %d pages: per-page %.17g vs flat %.17g"
         pages !per_page_sim !flat_sim);
  let ns s = s *. 1e9 in
  Json.Obj
    ([
       ("pages", Json.Int pages);
       ("bytes_per_side", Json.Int len);
       ( "swapva_per_page",
         Json.Obj
           [
             ("host_ns_per_op", Json.Float (ns per_page_host));
             ("simulated_ns", Json.Float !per_page_sim);
           ] );
       ( "swapva_flat",
         Json.Obj
           [
             ("host_ns_per_op", Json.Float (ns flat_host));
             ("simulated_ns", Json.Float !flat_sim);
           ] );
       ("simulated_cost_identical", Json.Bool true);
       ( "host_speedup_flat_vs_per_page",
         Json.Float (per_page_host /. flat_host) );
     ]
    @ memmove)

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let out =
    let rec find = function
      | ("-o" | "--output") :: file :: _ -> file
      | _ :: tl -> find tl
      | [] -> "BENCH_swap.json"
    in
    find args
  in
  let sizes = if quick then [ 1024; 16384 ] else [ 1024; 65536; 524288 ] in
  let results = List.map (fun pages -> bench_size ~pages) sizes in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "swap_bench");
        ("unit", Json.Str "host ns per operation (Sys.time)");
        ("quick", Json.Bool quick);
        ("sizes", Json.List results);
      ]
  in
  let oc = open_out out in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  (* Full runs gate on the flat engine clearly beating the per-page
     reference at the largest size.  --quick smoke runs (CI on shared
     runners) only report the ratio: small sizes and noisy neighbours make
     a hard perf gate flaky there. *)
  match List.rev results with
  | last :: _ -> (
    match Json.member "host_speedup_flat_vs_per_page" last with
    | Some (Json.Float s) ->
      Printf.printf "largest-size speedup flat vs per-page: %.1fx\n" s;
      if (not quick) && s < 5.0 then begin
        Printf.eprintf "FAIL: expected >= 5x, got %.2fx\n" s;
        exit 1
      end
    | _ -> ())
  | [] -> ()
