(* svagc — command-line front end for the SVAGC reproduction.

   `svagc list`                 enumerate experiments and workloads
   `svagc exp fig11 [--quick]`  reproduce one figure/table (or `all`)
   `svagc bench <name> ...`     run one benchmark under chosen collectors
   `svagc threshold`            print the Fig. 10 style break-even sweep
   `svagc trace ...`            run a workload/experiment with structured
                                tracing on and write Chrome trace JSON *)

open Cmdliner
module Registry = Svagc_experiments.Registry
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report

let list_cmd =
  let doc = "List available experiments and workloads." in
  let run () =
    Report.section "Experiments";
    List.iter
      (fun e -> Printf.printf "  %-8s %s\n" e.Registry.id e.Registry.title)
      Registry.all;
    Report.section "Workloads";
    List.iter
      (fun w ->
        Printf.printf "  %-16s %-12s %s\n" w.Workload.name w.Workload.suite
          w.Workload.description)
      Svagc_workloads.Spec.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Trimmed suite / fewer steps.")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run with the svagc_check shadow oracle enabled: TLB coherence \
           after every shootdown, perf-counter conservation laws, clock \
           monotonicity and post-GC heap audits. Exits non-zero on any \
           invariant violation.")

let print_check_report rep =
  Report.section "svagc_check report";
  Format.printf "%a@." Svagc_check.Check.pp_report rep;
  rep.Svagc_check.Check.findings <> []

let run_experiment ~quick id =
  if id = "all" then Registry.run_all ~quick ()
  else
    match Registry.find id with
    | Some e -> e.Registry.run ~quick ()
    | None ->
      Printf.eprintf "unknown experiment %S (see `svagc list`)\n" id;
      exit 1

let exp_cmd =
  let doc = "Reproduce paper experiments by id (or 'all')." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let tenants_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Override the fleet experiment's cohort size (surge scales to \
             5% of it). Only affects 'fleet'; e.g. $(b,exp fleet --tenants \
             10000 --quick).")
  in
  let run quick check tenants ids =
    (match tenants with
    | Some n when n < 1 ->
      Printf.eprintf "--tenants must be >= 1\n";
      exit 1
    | _ -> Svagc_experiments.Exp_fleet.tenants_override := tenants);
    if check then Svagc_check.Check.enable ~label:(String.concat "+" ids) ();
    List.iter (run_experiment ~quick) ids;
    if check then
      match Svagc_check.Check.disable () with
      | Some rep -> if print_check_report rep then exit 1
      | None -> ()
  in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(const run $ quick_arg $ check_flag $ tenants_arg $ ids)

let collector_conv =
  let parse = function
    | "svagc" -> Ok Svagc_experiments.Exp_common.Svagc
    | "memmove" | "baseline" -> Ok Svagc_experiments.Exp_common.Lisp2_memmove
    | "parallelgc" -> Ok Svagc_experiments.Exp_common.Parallelgc
    | "shenandoah" -> Ok Svagc_experiments.Exp_common.Shenandoah
    | s -> Error (`Msg (Printf.sprintf "unknown collector %S" s))
  in
  let print ppf k =
    Format.pp_print_string ppf (Svagc_experiments.Exp_common.collector_name k)
  in
  Arg.conv (parse, print)

let no_coalesce_arg =
  Arg.(
    value & flag
    & info [ "no-coalesce" ]
        ~doc:
          "Disable run coalescing: adjacent compaction entries with \
           contiguous src and dst ranges are no longer merged into one \
           SwapVA request before aggregation.")

let pmd_leaf_swap_arg =
  Arg.(
    value & flag
    & info [ "pmd-leaf-swap" ]
        ~doc:
          "Enable whole-PMD leaf swapping: 512-page PMD-aligned sub-runs \
           are exchanged at the page-directory level in O(1) simulated \
           cost. Opt-in because it changes the cost model.")

let fault_spec_arg =
  Arg.(
    value & opt string ""
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Deterministic kernel fault injection, e.g. \
           $(b,pte:p=0.01,lock:p=0.005,ipi:every=64) or \
           $(b,pte:p=0.1:va=0x100000000-0x140000000). Sites: $(b,pte) \
           (PTE resolution, EFAULT), $(b,lock) (mmap-lock acquisition, \
           EAGAIN), $(b,ipi) (shootdown IPI delivery, lost + resent), \
           $(b,swap) (swap-device I/O, EIO with bounded retry). Empty \
           disables injection.")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the fault-injection PRNG streams; the same spec and \
           seed replay the same faults byte-for-byte.")

let mem_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-limit-frames" ] ~docv:"N"
        ~doc:
          "Cap resident physical frames at N, attaching the kswapd-style \
           reclaim plane: cold pages are evicted to the simulated swap \
           device and fault back in on first touch as charged major \
           faults. Default: unlimited (no reclaim plane, bit-identical to \
           builds without one).")

let swap_cost_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "swap-cost" ] ~docv:"NS"
        ~doc:
          "Override both simulated swap-device latencies (swap-out and \
           swap-in) with NS nanoseconds per page transfer. Only \
           meaningful together with $(b,--mem-limit-frames).")

let parse_fault_spec spec =
  match Svagc_fault.Fault_spec.parse spec with
  | Ok s -> s
  | Error msg ->
    Printf.eprintf "--fault-spec: %s\n" msg;
    exit 1

let svagc_config ~no_coalesce ~pmd_leaf_swap ~fault_spec ~fault_seed
    ~mem_limit_frames ~swap_cost_ns =
  {
    Svagc_core.Config.default with
    Svagc_core.Config.coalesce_runs = not no_coalesce;
    pmd_leaf_swap;
    fault_spec = parse_fault_spec fault_spec;
    fault_seed;
    mem_limit_frames;
    swap_cost_ns;
  }

(* Arm memory pressure on a freshly created machine, ahead of any JVM, so
   heap pages are LRU-tracked from the first mapping.  The Move_object
   prologue would also attach lazily via the config, but only once the
   first SwapVA collection runs — too late for baseline collectors. *)
let attach_reclaim machine ~mem_limit_frames ~swap_cost_ns =
  match mem_limit_frames with
  | Some limit_frames ->
    if not (Svagc_kernel.Fault_handler.attached machine) then
      ignore
        (Svagc_kernel.Fault_handler.attach machine ~limit_frames
           ?swap_cost_ns ())
  | None -> ()

let bench_cmd =
  let doc = "Run one workload under one or more collectors." in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let collectors =
    Arg.(
      value
      & opt_all collector_conv
          [
            Svagc_experiments.Exp_common.Svagc;
            Svagc_experiments.Exp_common.Lisp2_memmove;
          ]
      & info [ "c"; "collector" ] ~docv:"COLLECTOR"
          ~doc:"svagc | memmove | parallelgc | shenandoah (repeatable).")
  in
  let heap_factor =
    Arg.(value & opt float 1.2 & info [ "heap-factor" ] ~doc:"Heap over minimum.")
  in
  let steps = Arg.(value & opt int 60 & info [ "steps" ] ~doc:"Mutator steps.") in
  let run workload_name collectors heap_factor steps no_coalesce pmd_leaf_swap
      fault_spec fault_seed mem_limit_frames swap_cost_ns =
    let workload =
      try Svagc_workloads.Spec.find workload_name
      with Not_found ->
        Printf.eprintf "unknown workload %S (see `svagc list`)\n" workload_name;
        exit 1
    in
    let config =
      svagc_config ~no_coalesce ~pmd_leaf_swap ~fault_spec ~fault_seed
        ~mem_limit_frames ~swap_cost_ns
    in
    Report.section (Printf.sprintf "%s @ %.1fx min heap" workload_name heap_factor);
    List.iter
      (fun kind ->
        let machine =
          Svagc_experiments.Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130
        in
        attach_reclaim machine ~mem_limit_frames ~swap_cost_ns;
        let r =
          Runner.run ~heap_factor ~steps ~machine
            ~collector_of:(Svagc_experiments.Exp_common.collector_of ~config kind)
            workload
        in
        Report.subsection (Svagc_experiments.Exp_common.collector_name kind);
        Report.kv "steps" (string_of_int r.Runner.steps);
        Report.kv "full GCs" (string_of_int r.Runner.summary.Svagc_gc.Gc_stats.cycles);
        Report.kv "app time" (Report.ns r.Runner.app_ns);
        Report.kv "GC time" (Report.ns r.Runner.gc_ns);
        Report.kv "avg pause"
          (Report.ns r.Runner.summary.Svagc_gc.Gc_stats.avg_pause_ns);
        Report.kv "max pause"
          (Report.ns r.Runner.summary.Svagc_gc.Gc_stats.max_pause_ns);
        Report.kv "throughput" (Printf.sprintf "%.3f steps/ms" r.Runner.throughput);
        match mem_limit_frames with
        | None -> ()
        | Some _ ->
          let perf = machine.Svagc_vmem.Machine.perf in
          Report.kv "major faults"
            (string_of_int (Svagc_vmem.Perf.get perf Major_faults));
          Report.kv "pages swapped out"
            (string_of_int (Svagc_vmem.Perf.get perf Pages_swapped_out));
          Report.kv "pages swapped in"
            (string_of_int (Svagc_vmem.Perf.get perf Pages_swapped_in)))
      collectors
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ workload_arg $ collectors $ heap_factor $ steps
      $ no_coalesce_arg $ pmd_leaf_swap_arg $ fault_spec_arg $ fault_seed_arg
      $ mem_limit_arg $ swap_cost_arg)

let trace_cmd =
  let doc =
    "Run a workload (or experiment) with tracing enabled and write a Chrome \
     trace-event JSON file (open it in Perfetto or chrome://tracing)."
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload to trace (see `svagc list`; aliases like fft.small work).")
  in
  let exp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "exp" ] ~docv:"ID"
          ~doc:"Trace a whole registered experiment instead of a workload.")
  in
  let jvms_arg =
    Arg.(
      value & opt int 1
      & info [ "jvms" ] ~docv:"N"
          ~doc:"Co-running JVM instances (one trace track each).")
  in
  let steps = Arg.(value & opt int 40 & info [ "steps" ] ~doc:"Mutator steps.") in
  let heap_factor =
    Arg.(value & opt float 1.2 & info [ "heap-factor" ] ~doc:"Heap over minimum.")
  in
  let collector =
    Arg.(
      value
      & opt collector_conv Svagc_experiments.Exp_common.Svagc
      & info [ "c"; "collector" ] ~docv:"COLLECTOR"
          ~doc:"svagc | memmove | parallelgc | shenandoah.")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let capacity =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Ring-buffer capacity in events (oldest dropped beyond this).")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Also print an ASCII timeline.")
  in
  let run workload_name exp_id jvms steps heap_factor collector out capacity
      ascii no_coalesce pmd_leaf_swap fault_spec fault_seed mem_limit_frames
      swap_cost_ns =
    let module Tracer = Svagc_trace.Tracer in
    let module Machine = Svagc_vmem.Machine in
    if capacity <= 0 then begin
      Printf.eprintf "trace: --capacity must be positive (got %d)\n" capacity;
      exit 1
    end;
    let tracer = Tracer.start ~capacity () in
    (match (exp_id, workload_name) with
    | Some id, _ -> (
      match Registry.find id with
      | Some e -> e.Registry.run ~quick:true ()
      | None ->
        Printf.eprintf "unknown experiment %S (see `svagc list`)\n" id;
        exit 1)
    | None, None ->
      Printf.eprintf "trace: pass --workload NAME or --exp ID\n";
      exit 1
    | None, Some workload_name ->
      let workload =
        try Svagc_workloads.Spec.find workload_name
        with Not_found ->
          Printf.eprintf "unknown workload %S (see `svagc list`)\n" workload_name;
          exit 1
      in
      let machine =
        Svagc_experiments.Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130
      in
      Tracer.set_counter_source (fun () ->
          Svagc_vmem.Perf.to_assoc machine.Machine.perf);
      let config =
        svagc_config ~no_coalesce ~pmd_leaf_swap ~fault_spec ~fault_seed
          ~mem_limit_frames ~swap_cost_ns
      in
      let collector_of =
        Svagc_experiments.Exp_common.collector_of ~config collector
      in
      if jvms <= 1 then begin
        attach_reclaim machine ~mem_limit_frames ~swap_cost_ns;
        ignore
          (Runner.run ~heap_factor ~steps ~machine ~collector_of workload)
      end
      else begin
        let steppers = Array.make jvms (fun () -> ()) in
        let multi =
          Svagc_core.Multi_jvm.create ?mem_limit_frames ?swap_cost_ns machine
            ~instances:jvms
            ~spawn:(fun ~index machine ->
              let jvm =
                Runner.make_jvm ~heap_factor ~machine ~collector_of workload
              in
              let rng = Svagc_util.Rng.create ~seed:(1000 + index) in
              steppers.(index) <- workload.Workload.setup jvm rng;
              jvm)
        in
        for _ = 1 to steps do
          Array.iter (fun stepper -> stepper ()) steppers
        done;
        Svagc_core.Multi_jvm.release multi
      end);
    match Tracer.stop () with
    | None -> ()
    | Some t ->
      Svagc_trace.Chrome_trace.write_file t out;
      Printf.printf "wrote %s: %d events (%d dropped, capacity %d)\n" out
        (List.length (Svagc_trace.Tracer.events t))
        (Svagc_trace.Tracer.dropped t)
        (Svagc_trace.Tracer.capacity t);
      ignore tracer;
      if ascii then Svagc_metrics.Timeline.print t
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ workload_arg $ exp_arg $ jvms_arg $ steps $ heap_factor
      $ collector $ out $ capacity $ ascii $ no_coalesce_arg
      $ pmd_leaf_swap_arg $ fault_spec_arg $ fault_seed_arg $ mem_limit_arg
      $ swap_cost_arg)

let check_cmd =
  let doc =
    "Run the shadow invariant oracle: the qcheck-style differential harness \
     (per-page vs flat vs pmd-leaf SwapVA engines, rate-0 fault \
     bit-identity), the work-steal scheduler laws, a traced workload with \
     span-nesting checks, and oracle-enabled experiments. Exits non-zero on \
     any finding."
  in
  let cases =
    Arg.(
      value & opt int 40
      & info [ "cases" ] ~docv:"N" ~doc:"Differential schedules to replay.")
  in
  let seed =
    Arg.(
      value & opt int 0xC0FFEE
      & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule-generator seed.")
  in
  let exps =
    Arg.(
      value
      & opt_all string [ "fig6"; "fig9"; "table1" ]
      & info [ "e"; "exp" ] ~docv:"ID"
          ~doc:
            "Experiment to run under the oracle (repeatable; defaults to \
             fig6, fig9 and table1; pass $(b,all) for every registered \
             experiment).")
  in
  let run cases seed exps quick =
    let module Check = Svagc_check.Check in
    let module Differential = Svagc_check.Differential in
    let failed = ref false in
    let stateless name (items, findings) =
      Report.kv name
        (Printf.sprintf "%d items, %d findings" items (List.length findings));
      List.iter
        (fun f ->
          failed := true;
          Format.printf "  %a@." Check.pp_finding f)
        findings
    in
    Report.section "svagc_check: differential harness";
    stateless "swap engines + rate-0"
      (Differential.run_suite ~cases ~seed ());
    Report.section "svagc_check: work-steal scheduler laws";
    let rng = Svagc_util.Rng.create ~seed in
    let random_costs n =
      Array.init n (fun _ -> 10.0 +. Svagc_util.Rng.float rng *. 990.0)
    in
    List.iter
      (fun (threads, costs, name) ->
        stateless name (Check.work_steal_oracle ~threads costs))
      [
        (1, [||], "zero items, single thread");
        (4, [||], "zero items, four threads");
        (1, random_costs 25, "single thread");
        (8, random_costs 3, "threads >> tasks");
        (16, [| 100.0 |], "one task, many threads");
        (3, random_costs 64, "three threads");
        (7, Array.make 49 12.5, "equal costs");
        (5, random_costs 200, "large random schedule");
      ];
    Report.section "svagc_check: oracle-enabled runs";
    Check.enable ~label:(String.concat "+" exps) ();
    (* A small traced workload exercises the span-nesting and trace
       monotonicity oracles alongside the machine/heap ones. *)
    let (), tracer =
      Svagc_trace.Tracer.with_tracer (fun () ->
          let workload = Svagc_workloads.Spec.find "fft.small" in
          let machine =
            Svagc_experiments.Exp_common.fresh_machine
              Svagc_vmem.Cost_model.xeon_6130
          in
          let collector_of =
            Svagc_experiments.Exp_common.collector_of
              ~config:Svagc_core.Config.default
              Svagc_experiments.Exp_common.Svagc
          in
          ignore (Runner.run ~heap_factor:1.2 ~steps:8 ~machine ~collector_of workload))
    in
    Svagc_check.Check.observe_tracer tracer;
    List.iter (run_experiment ~quick) exps;
    (match Svagc_check.Check.disable () with
    | Some rep -> if print_check_report rep then failed := true
    | None -> ());
    if !failed then exit 1;
    print_endline "svagc_check: all invariants hold"
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ cases $ seed $ exps $ quick_arg)

let fleet_cmd =
  let module Fleet = Svagc_fleet.Fleet in
  let doc =
    "Multi-tenant fleet simulation: heterogeneous tenants admitted against \
     an overcommitted budget, memory-cgroup soft/hard residency limits, \
     and a two-tier (local + far-memory) swap device. Reports per-tenant \
     p50/p99/p999 GC pauses and allocation stalls."
  in
  let d = Fleet.default in
  let tenants =
    Arg.(
      value & opt int d.Fleet.tenants
      & info [ "tenants" ] ~docv:"N" ~doc:"Main-cohort tenant count.")
  in
  let surge =
    Arg.(
      value & opt int d.Fleet.surge
      & info [ "surge" ] ~docv:"N"
          ~doc:
            "Late arrivals after the budget is spent; they queue (up to \
             $(b,--queue-limit)) or are rejected.")
  in
  let overcommit =
    Arg.(
      value & opt float d.Fleet.overcommit
      & info [ "overcommit" ] ~docv:"X"
          ~doc:"Committed-to-resident ratio the pool is sized for (>= 1).")
  in
  let steps =
    Arg.(
      value & opt int d.Fleet.steps
      & info [ "steps" ] ~doc:"Mutator steps per tenant.")
  in
  let seed =
    Arg.(value & opt int d.Fleet.seed & info [ "seed" ] ~doc:"Base RNG seed.")
  in
  let cgroup_soft =
    Arg.(
      value & opt float d.Fleet.cgroup_soft
      & info [ "cgroup-soft" ] ~docv:"FRAC"
          ~doc:
            "Per-tenant cgroup soft limit as a fraction of its heap pages; \
             kswapd prefers over-soft tenants' pages when evicting.")
  in
  let cgroup_hard =
    Arg.(
      value & opt float d.Fleet.cgroup_hard
      & info [ "cgroup-hard" ] ~docv:"FRAC"
          ~doc:
            "Per-tenant cgroup hard limit as a fraction of its heap pages \
             (also the tenant's admission commitment); enforced by direct \
             reclaim on every mapping.")
  in
  let far_tier_cost =
    Arg.(
      value & opt float d.Fleet.far_tier_cost
      & info [ "far-tier-cost" ] ~docv:"X"
          ~doc:"Far-memory tier latency as a multiple of the near tier's.")
  in
  let near_frac =
    Arg.(
      value & opt float d.Fleet.near_frac
      & info [ "near-frac" ] ~docv:"FRAC"
          ~doc:
            "Near-tier (local NVMe) slot count as a fraction of the pool; \
             beyond it, the coldest slots demote to the far tier.")
  in
  let queue_limit =
    Arg.(
      value & opt int d.Fleet.queue_limit
      & info [ "queue-limit" ] ~docv:"N" ~doc:"Admission wait-queue capacity.")
  in
  let collectors =
    Arg.(
      value
      & opt_all collector_conv
          [
            Svagc_experiments.Exp_common.Svagc;
            Svagc_experiments.Exp_common.Lisp2_memmove;
          ]
      & info [ "c"; "collector" ] ~docv:"COLLECTOR"
          ~doc:"svagc | memmove | parallelgc | shenandoah (repeatable).")
  in
  let run tenants surge overcommit steps seed cgroup_soft cgroup_hard
      far_tier_cost near_frac queue_limit collectors check =
    let config =
      {
        Fleet.tenants;
        surge;
        overcommit;
        steps;
        seed;
        cgroup_soft;
        cgroup_hard;
        far_tier_cost;
        near_frac;
        queue_limit;
      }
    in
    if check then Svagc_check.Check.enable ~label:"fleet" ();
    Report.section
      (Printf.sprintf "fleet: %d + %d tenants @ %gx overcommit" tenants surge
         overcommit);
    let results =
      List.map
        (fun kind ->
          Fleet.run
            ~collector_of:(Svagc_experiments.Exp_common.collector_of kind)
            ~label:(Svagc_experiments.Exp_common.collector_name kind)
            config)
        collectors
    in
    Svagc_experiments.Exp_fleet.print_results results;
    if check then
      match Svagc_check.Check.disable () with
      | Some rep -> if print_check_report rep then exit 1
      | None -> ()
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const run $ tenants $ surge $ overcommit $ steps $ seed $ cgroup_soft
      $ cgroup_hard $ far_tier_cost $ near_frac $ queue_limit $ collectors
      $ check_flag)

let threshold_cmd =
  let doc = "Print the SwapVA/memmove break-even sweep (Fig. 10)." in
  Cmd.v (Cmd.info "threshold" ~doc)
    Term.(const (fun () -> Svagc_experiments.Exp_fig10.run ()) $ const ())

let main =
  let doc = "SVAGC: GC with scalable virtual-address swapping (simulation)" in
  Cmd.group (Cmd.info "svagc" ~version:"1.0.0" ~doc)
    [ list_cmd; exp_cmd; bench_cmd; fleet_cmd; threshold_cmd; trace_cmd; check_cmd ]

let () = exit (Cmd.eval main)
