(* Benchmark for the fleet headline: tail GC pauses across 1k+ tenants
   under 2x memory overcommit, with cgroup limits and a tiered (local +
   far-memory) swap device.  Large tenants compact humongous buffers:
   SwapVA exchanges the PTEs — swapped ones participate as swap-slot
   handles wherever their payload lives — while memmove demand-faults
   every cold page through the far tier before copying it.  The gate is
   on the tail: SwapVA's fleet-wide p99 GC pause must not exceed
   memmove's.  All costs are simulated and deterministic, so the gate is
   safe to enforce in --quick mode too.

   `dune exec bench/fleet_bench.exe` writes BENCH_fleet.json (canonical
   JSON, see --output).  `--quick` trims the fleet for CI smoke runs. *)

module Exp_common = Svagc_experiments.Exp_common
module Exp_fleet = Svagc_experiments.Exp_fleet
module Fleet = Svagc_fleet.Fleet
module Histogram = Svagc_util.Histogram
module Perf = Svagc_vmem.Perf
module Json = Svagc_trace.Json

let result_json (r : Fleet.result) =
  Json.Obj
    [
      ("collector", Json.Str r.Fleet.label);
      ("tenants", Json.Int (Array.length r.Fleet.stats));
      ("admitted", Json.Int r.Fleet.admitted);
      ("queued", Json.Int r.Fleet.queued);
      ("rejected", Json.Int r.Fleet.rejected);
      ("waves", Json.Int r.Fleet.waves);
      ("pool_frames", Json.Int r.Fleet.pool_frames);
      ("committed_frames", Json.Int r.Fleet.committed_frames);
      ("near_slots", Json.Int r.Fleet.near_slots);
      ( "gc_pause_ns",
        Json.Obj
          [
            ("count", Json.Int (Histogram.count r.Fleet.pauses));
            ("p50", Json.Float (Histogram.p50 r.Fleet.pauses));
            ("p99", Json.Float (Histogram.p99 r.Fleet.pauses));
            ("p999", Json.Float (Histogram.p999 r.Fleet.pauses));
            ("max", Json.Float (Histogram.max r.Fleet.pauses));
            ("max_tenant_p99", Json.Float r.Fleet.max_tenant_p99_pause);
          ] );
      ( "alloc_stall_ns",
        Json.Obj
          [
            ("count", Json.Int (Histogram.count r.Fleet.stalls));
            ("p50", Json.Float (Histogram.p50 r.Fleet.stalls));
            ("p99", Json.Float (Histogram.p99 r.Fleet.stalls));
            ("p999", Json.Float (Histogram.p999 r.Fleet.stalls));
          ] );
      ("tier_demotions", Json.Int (Perf.get r.Fleet.perf Tier_demotions));
      ("tier_promotions", Json.Int (Perf.get r.Fleet.perf Tier_promotions));
      ("admission_rejects", Json.Int (Perf.get r.Fleet.perf Admission_rejects));
      ("major_faults", Json.Int (Perf.get r.Fleet.perf Major_faults));
      ("swapva_calls", Json.Int (Perf.get r.Fleet.perf Swapva_calls));
      ("memmove_calls", Json.Int (Perf.get r.Fleet.perf Memmove_calls));
      ("total_ns", Json.Float r.Fleet.total_ns);
    ]

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let out =
    let rec find = function
      | ("-o" | "--output") :: file :: _ -> file
      | _ :: tl -> find tl
      | [] -> "BENCH_fleet.json"
    in
    find args
  in
  let cfg = Exp_fleet.config_for ~quick in
  Printf.printf "fleet: %d + %d tenants @ %gx overcommit:%!" cfg.Fleet.tenants
    cfg.Fleet.surge cfg.Fleet.overcommit;
  let svagc = Exp_fleet.measure ~quick Exp_common.Svagc in
  Printf.printf " svagc%!";
  let memmove = Exp_fleet.measure ~quick Exp_common.Lisp2_memmove in
  Printf.printf " memmove\n%!";
  let sv99 = Histogram.p99 svagc.Fleet.pauses in
  let mm99 = Histogram.p99 memmove.Fleet.pauses in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "fleet_bench");
        ("unit", Json.Str "simulated ns per GC pause (deterministic)");
        ("quick", Json.Bool quick);
        ("tenants", Json.Int cfg.Fleet.tenants);
        ("surge", Json.Int cfg.Fleet.surge);
        ("overcommit", Json.Float cfg.Fleet.overcommit);
        ("far_tier_cost", Json.Float cfg.Fleet.far_tier_cost);
        ("results", Json.List [ result_json svagc; result_json memmove ]);
        ( "gate",
          Json.Obj
            [
              ("metric", Json.Str "fleet-wide p99 GC pause");
              ("swapva_p99_ns", Json.Float sv99);
              ("memmove_p99_ns", Json.Float mm99);
              ("swapva_le_memmove", Json.Bool (sv99 <= mm99));
            ] );
      ]
  in
  let oc = open_out out in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  Printf.printf "p99 GC pause: swapva %.0fns vs memmove %.0fns (%.2fx)\n" sv99
    mm99
    (if sv99 > 0.0 then mm99 /. sv99 else 0.0);
  if sv99 > mm99 then begin
    Printf.eprintf
      "FAIL: SwapVA p99 pause %.0fns exceeds memmove p99 %.0fns under %gx \
       overcommit\n"
      sv99 mm99 cfg.Fleet.overcommit;
    exit 1
  end
