(* svagc — command-line front end for the SVAGC reproduction: list, exp,
   bench, fleet, trace and check (see `svagc --help`).

   Every input is checked while the command line is parsed: a bad value
   exits 124 with a message on stderr before anything runs or prints.  A
   simulated kernel error no layer recovers from exits 123 with one line
   on stderr (see [exits]). *)

open Cmdliner
module Registry = Svagc_experiments.Registry
module Exp_common = Svagc_experiments.Exp_common
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Check = Svagc_check.Check
module Fleet = Svagc_fleet.Fleet
module Swap_tier = Svagc_reclaim.Swap_tier
module Reclaim = Svagc_reclaim.Reclaim
module Perf = Svagc_vmem.Perf

(* The exit statuses every command documents: cmdliner's own, with 123
   narrowed to the one error a run can end in, plus the oracle's 1. *)
let exits =
  Cmd.Exit.info 1
    ~doc:"when the shadow oracle ($(b,--check), $(b,check)) reports a finding."
  :: Cmd.Exit.info Cmd.Exit.some_error
       ~doc:
         "when a simulated kernel error ends the run, such as a swap-in whose \
          bounded device retry failed on every attempt ($(b,--fault-spec) \
          $(b,swap:p=...)); the error is printed on stderr."
  :: List.filter
       (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.some_error)
       Cmd.Exit.defaults

(* [f ()] builds a command's setup; an [Invalid_argument] it raises is a
   command-line error, reported before the command runs. *)
let validated t =
  Term.term_result' ~usage:false
    Term.(
      const (fun f ->
          match f () with
          | v -> Ok v
          | exception Invalid_argument msg -> Error msg)
      $ t)

let require ok msg = if not ok then invalid_arg msg

(* Run [f] under the shadow oracle when [check] is set: print its report
   afterwards and exit 1 on any finding. *)
let with_check check ~label f =
  if not check then f ()
  else begin
    Check.enable ~label ();
    f ();
    match Check.disable () with
    | None -> ()
    | Some rep ->
      Report.section "svagc_check report";
      Format.printf "%a@." Check.pp_report rep;
      if rep.Check.findings <> [] then exit 1
  end

(* --- Converters: names resolve while parsing, before any run. --- *)

let unknown what name =
  Error (`Msg (Printf.sprintf "unknown %s %S (see `svagc list`)" what name))

let experiment_conv =
  let parse id =
    if id = "all" || Registry.find id <> None then Ok id
    else unknown "experiment" id
  in
  Arg.conv (parse, Format.pp_print_string)

(* [id] passed [experiment_conv]: it is registered or it is "all". *)
let run_experiment ~quick id =
  match Registry.find id with
  | Some e -> e.Registry.run ~quick ()
  | None -> Registry.run_all ~quick ()

(* The name is kept as typed: it heads the bench report. *)
let workload_conv =
  let parse name =
    match Svagc_workloads.Spec.find name with
    | w -> Ok (name, w)
    | exception Not_found -> unknown "workload" name
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let collector_conv =
  let parse = function
    | "svagc" -> Ok Exp_common.Svagc
    | "memmove" | "baseline" -> Ok Exp_common.Lisp2_memmove
    | "parallelgc" -> Ok Exp_common.Parallelgc
    | "shenandoah" -> Ok Exp_common.Shenandoah
    | s -> Error (`Msg (Printf.sprintf "unknown collector %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Exp_common.collector_name k) in
  Arg.conv (parse, print)

let fault_spec_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Svagc_fault.Fault_spec.parse s)
  in
  Arg.conv (parse, Svagc_fault.Fault_spec.pp)

(* --- Shared arguments --- *)

let opt_arg parse default ?docv names doc =
  Arg.(value & opt parse default & info names ?docv ~doc)

let flag_arg names doc = Arg.(value & flag & info names ~doc)

let quick_arg = flag_arg [ "quick" ] "Trimmed suite / fewer steps."

let check_arg =
  flag_arg [ "check" ]
    "Run with the svagc_check shadow oracle enabled: TLB coherence after \
     every shootdown, perf-counter conservation laws, clock monotonicity \
     and post-GC heap audits. Exits non-zero on any invariant violation."

let collectors_arg =
  Arg.(
    value
    & opt_all collector_conv [ Exp_common.Svagc; Exp_common.Lisp2_memmove ]
    & info [ "c"; "collector" ] ~docv:"COLLECTOR"
        ~doc:"svagc | memmove | parallelgc | shenandoah (repeatable).")

(* One workload run's setup: the shared run flags, parsed and validated
   once for [bench] and [trace]. *)
type ('w, 'c) run = {
  workload : 'w;  (** required for bench, optional for trace *)
  collectors : 'c;  (** a list for bench, one for trace *)
  steps : int;
  heap_factor : float;
  config : Svagc_core.Config.t;
  machine : unit -> Svagc_vmem.Machine.t;
      (** a fresh machine, with memory pressure armed when
          [--mem-limit-frames] is given *)
}

(* The simulated MMU translates 48-bit virtual addresses. *)
let max_heap_bytes = (1 lsl 48) - Svagc_heap.Heap.default_base

let run_term ~workload ~min_heap_bytes ~collectors ~steps =
  let steps = opt_arg Arg.int steps [ "steps" ] "Mutator steps." in
  let heap_factor =
    opt_arg Arg.float 1.2 [ "heap-factor" ]
      "Heap over the workload's minimum (>= 1)."
  in
  let fault_spec =
    opt_arg fault_spec_conv Svagc_fault.Fault_spec.empty ~docv:"SPEC"
      [ "fault-spec" ]
      "Deterministic kernel fault injection, e.g. \
       $(b,pte:p=0.01,lock:p=0.005,ipi:every=64) or \
       $(b,pte:p=0.1:va=0x100000000-0x140000000). Sites: $(b,pte) (PTE \
       resolution, EFAULT), $(b,lock) (mmap-lock acquisition, EAGAIN), \
       $(b,ipi) (shootdown IPI delivery, lost + resent), $(b,swap) \
       (swap-device I/O, EIO with bounded retry). Empty disables injection."
  in
  let fault_seed =
    opt_arg Arg.int 0 ~docv:"SEED" [ "fault-seed" ]
      "Seed for the fault-injection PRNG streams; the same spec and seed \
       replay the same faults byte-for-byte."
  in
  let mem_limit_frames =
    opt_arg Arg.(some int) None ~docv:"N" [ "mem-limit-frames" ]
      "Cap resident physical frames at N, arming the kswapd-style reclaim \
       plane on every machine the command makes: cold pages are evicted to \
       the simulated swap device and fault back in on first touch as \
       charged major faults. Default: unlimited (no reclaim plane, \
       bit-identical to builds without one)."
  in
  let swap_cost_ns =
    opt_arg Arg.(some float) None ~docv:"NS" [ "swap-cost" ]
      "Override both simulated swap-device latencies (swap-out and swap-in) \
       with NS nanoseconds per page transfer. Only meaningful together with \
       $(b,--mem-limit-frames)."
  in
  let make workload collectors steps heap_factor fault_spec fault_seed
      mem_limit_frames swap_cost_ns () =
    require (steps >= 1) "--steps must be >= 1";
    require
      (Float.is_finite heap_factor && heap_factor >= 1.0)
      "--heap-factor must be finite and >= 1";
    require
      (float_of_int (min_heap_bytes workload) *. heap_factor
      <= float_of_int max_heap_bytes)
      "--heap-factor: the heap does not fit the 48-bit address space";
    Option.iter
      (fun n -> require (n > 0) "--mem-limit-frames must be positive")
      mem_limit_frames;
    Option.iter
      (fun ns ->
        require
          (ns >= 0.0 && Float.is_finite ns)
          "--swap-cost must be finite and non-negative")
      swap_cost_ns;
    let config = { Svagc_core.Config.default with fault_spec; fault_seed } in
    Svagc_core.Config.validate config;
    let machine () =
      let machine = Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130 in
      Option.iter
        (fun limit_frames ->
          let dev = Swap_tier.create machine ?swap_cost_ns () in
          ignore (Reclaim.attach machine ~limit_frames ~dev ()))
        mem_limit_frames;
      machine
    in
    { workload; collectors; steps; heap_factor; config; machine }
  in
  validated
    Term.(
      const make $ workload $ collectors $ steps $ heap_factor $ fault_spec
      $ fault_seed $ mem_limit_frames $ swap_cost_ns)

(* --- Subcommands --- *)

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
  Cmd.v (Cmd.info "list" ~doc ~exits) Term.(const run $ const ())

let exp_cmd =
  let doc = "Reproduce paper experiments by id (or 'all')." in
  let ids =
    Arg.(non_empty & pos_all experiment_conv [] & info [] ~docv:"ID")
  in
  let run quick check ids =
    with_check check ~label:(String.concat "+" ids) (fun () ->
        List.iter (run_experiment ~quick) ids)
  in
  Cmd.v (Cmd.info "exp" ~doc ~exits) Term.(const run $ quick_arg $ check_arg $ ids)

let bench_cmd =
  let doc = "Run one workload under one or more collectors." in
  let workload =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let run r =
    let name, workload = r.workload in
    Report.section (Printf.sprintf "%s @ %.1fx min heap" name r.heap_factor);
    List.iter
      (fun kind ->
        let machine = r.machine () in
        let res =
          Runner.run ~heap_factor:r.heap_factor ~steps:r.steps ~machine
            ~collector_of:(Exp_common.collector_of ~config:r.config kind)
            workload
        in
        let summary = res.Runner.summary in
        let open Svagc_gc.Gc_stats in
        Report.subsection (Exp_common.collector_name kind);
        Report.kv "steps" (string_of_int res.Runner.steps);
        Report.kv "full GCs" (string_of_int summary.cycles);
        Report.kv "app time" (Report.ns res.Runner.app_ns);
        Report.kv "GC time" (Report.ns res.Runner.gc_ns);
        Report.kv "avg pause" (Report.ns summary.avg_pause_ns);
        Report.kv "max pause" (Report.ns summary.max_pause_ns);
        Report.kv "throughput"
          (Printf.sprintf "%.3f steps/ms" res.Runner.throughput);
        if machine.Svagc_vmem.Machine.reclaim <> None then begin
          let perf = machine.Svagc_vmem.Machine.perf in
          Report.kv "major faults" (string_of_int (Perf.get perf Major_faults));
          Report.kv "pages swapped out"
            (string_of_int (Perf.get perf Pages_swapped_out));
          Report.kv "pages swapped in"
            (string_of_int (Perf.get perf Pages_swapped_in))
        end)
      r.collectors
  in
  Cmd.v (Cmd.info "bench" ~doc ~exits)
    Term.(
      const run
      $ run_term ~workload
          ~min_heap_bytes:(fun (_, w) -> w.Workload.min_heap_bytes)
          ~collectors:collectors_arg ~steps:60)

let trace_cmd =
  let doc =
    "Run a workload (or experiment) with tracing enabled and write a Chrome \
     trace-event JSON file (open it in Perfetto or chrome://tracing)."
  in
  let workload =
    opt_arg Arg.(some workload_conv) None ~docv:"WORKLOAD" [ "w"; "workload" ]
      "Workload to trace (see `svagc list`; aliases like fft.small work)."
  in
  let collector =
    opt_arg collector_conv Exp_common.Svagc ~docv:"COLLECTOR"
      [ "c"; "collector" ] "svagc | memmove | parallelgc | shenandoah."
  in
  let exp =
    opt_arg Arg.(some experiment_conv) None ~docv:"ID" [ "e"; "exp" ]
      "Trace a whole registered experiment instead of a workload."
  in
  let jvms =
    opt_arg Arg.int 1 ~docv:"N" [ "jvms" ]
      "Co-running JVM instances (one trace track each)."
  in
  (* The ring is allocated up front, one word per event. *)
  let max_capacity = 1 lsl 24 in
  let capacity =
    opt_arg Arg.int 65536 ~docv:"N" [ "capacity" ]
      (Printf.sprintf
         "Ring-buffer capacity in events (oldest dropped beyond this), at \
          most %d (2^24)."
         max_capacity)
  in
  let out =
    opt_arg Arg.string "trace.json" ~docv:"FILE" [ "o"; "output" ]
      "Output file."
  in
  let ascii = flag_arg [ "ascii" ] "Also print an ASCII timeline." in
  let setup exp jvms capacity r () =
    require (jvms >= 1) "--jvms must be >= 1";
    require (capacity > 0) "--capacity must be positive";
    require (capacity <= max_capacity)
      (Printf.sprintf "--capacity must be at most %d" max_capacity);
    let target =
      match (exp, r.workload) with
      | Some id, _ -> `Exp id
      | None, Some w -> `Workload (w, jvms, r)
      | None, None -> invalid_arg "pass --workload NAME or --exp ID"
    in
    (target, capacity)
  in
  let run_workload (_, workload) jvms r =
    let machine = r.machine () in
    Svagc_trace.Tracer.set_counter_source (fun () ->
        Perf.to_assoc machine.Svagc_vmem.Machine.perf);
    let collector_of = Exp_common.collector_of ~config:r.config r.collectors in
    let heap_factor = r.heap_factor in
    if jvms = 1 then
      ignore
        (Runner.run ~heap_factor ~steps:r.steps ~machine ~collector_of workload)
    else begin
      let steppers = Array.make jvms (fun () -> ()) in
      let multi =
        Svagc_core.Multi_jvm.create machine ~instances:jvms
          ~spawn:(fun ~index machine ->
            let jvm =
              Runner.make_jvm ~heap_factor ~machine ~collector_of workload
            in
            let rng = Svagc_util.Rng.create ~seed:(1000 + index) in
            steppers.(index) <- workload.Workload.setup jvm rng;
            jvm)
      in
      Svagc_core.Multi_jvm.run_round_robin multi ~steps:r.steps
        ~step:(fun ~index _jvm _s -> steppers.(index) ())
    end
  in
  let run (target, capacity) out ascii =
    let module Tracer = Svagc_trace.Tracer in
    ignore (Tracer.start ~capacity ());
    (match target with
    | `Exp id -> run_experiment ~quick:true id
    | `Workload (w, jvms, r) -> run_workload w jvms r);
    match Tracer.stop () with
    | None -> ()
    | Some t ->
      Svagc_trace.Chrome_trace.write_file t out;
      Printf.printf "wrote %s: %d events (%d dropped, capacity %d)\n" out
        (List.length (Tracer.events t))
        (Tracer.dropped t) (Tracer.capacity t);
      if ascii then Svagc_metrics.Timeline.print t
  in
  let setup =
    validated
      Term.(
        const setup $ exp $ jvms $ capacity
        $ run_term ~workload
            ~min_heap_bytes:(function
              | Some (_, w) -> w.Workload.min_heap_bytes
              | None -> 0)
            ~collectors:collector ~steps:40)
  in
  Cmd.v (Cmd.info "trace" ~doc ~exits) Term.(const run $ setup $ out $ ascii)

let check_cmd =
  let doc =
    "Run the shadow invariant oracle: the qcheck-style differential harness \
     (per-page vs flat vs pmd-leaf SwapVA engines, rate-0 fault \
     bit-identity, the sharded sweep at 1 vs 4 domains), the work-steal \
     scheduler laws, a traced workload with span-nesting checks, and \
     oracle-enabled experiments. Exits non-zero on any finding."
  in
  let cases =
    validated
      Term.(
        const (fun n () ->
            require (n >= 1) "--cases must be >= 1";
            n)
        $ opt_arg Arg.int 40 ~docv:"N" [ "cases" ]
            "Differential schedules to replay.")
  in
  let seed =
    opt_arg Arg.int 0xC0FFEE ~docv:"SEED" [ "seed" ] "Schedule-generator seed."
  in
  let exps =
    Arg.(
      value
      & opt_all experiment_conv [ "fig6"; "fig9"; "table1" ]
      & info [ "e"; "exp" ] ~docv:"ID"
          ~doc:
            "Experiment to run under the oracle (repeatable; defaults to \
             fig6, fig9 and table1; pass $(b,all) for every registered \
             experiment).")
  in
  let run cases seed exps quick =
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
    stateless "sharded sweep, 1 vs 4 domains"
      (Differential.par_suite ~cases ~seed ());
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
    with_check true ~label:(String.concat "+" exps) (fun () ->
        (* A small traced workload exercises the span-nesting and trace
           monotonicity oracles alongside the machine/heap ones. *)
        let (), tracer =
          Svagc_trace.Tracer.with_tracer (fun () ->
              let workload = Svagc_workloads.Spec.find "fft.small" in
              let machine =
                Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130
              in
              let collector_of = Exp_common.collector_of Exp_common.Svagc in
              ignore
                (Runner.run ~heap_factor:1.2 ~steps:8 ~machine ~collector_of
                   workload))
        in
        Check.observe_tracer tracer;
        List.iter (run_experiment ~quick) exps);
    if !failed then exit 1;
    print_endline "svagc_check: all invariants hold"
  in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(const run $ cases $ seed $ exps $ quick_arg)

let fleet_cmd =
  let doc =
    "Multi-tenant fleet simulation: heterogeneous tenants admitted against \
     an overcommitted budget, memory-cgroup soft/hard residency limits, \
     and a two-tier (local + far-memory) swap device. Reports per-tenant \
     p50/p99/p999 GC pauses and allocation stalls."
  in
  let (d : Fleet.config) = Fleet.default in
  let tenants =
    opt_arg Arg.int d.tenants ~docv:"N" [ "tenants" ]
      "Main-cohort tenant count."
  in
  let surge =
    opt_arg Arg.(some int) None ~docv:"N" [ "surge" ]
      "Late arrivals after the budget is spent; they queue (up to \
       $(b,--queue-limit)) or are rejected. Default: 5% of $(b,--tenants), \
       at least 1."
  in
  let overcommit =
    opt_arg Arg.float d.overcommit ~docv:"X" [ "overcommit" ]
      "Committed-to-resident ratio the pool is sized for (>= 1)."
  in
  let steps = opt_arg Arg.int d.steps [ "steps" ] "Mutator steps per tenant." in
  let seed = opt_arg Arg.int d.seed [ "seed" ] "Base RNG seed." in
  let queue_limit =
    opt_arg Arg.int d.queue_limit ~docv:"N" [ "queue-limit" ]
      "Admission wait-queue capacity."
  in
  let make tenants surge overcommit steps seed queue_limit () =
    let surge = Option.value surge ~default:(Stdlib.max 1 (tenants / 20)) in
    let config = { Fleet.tenants; surge; overcommit; steps; seed; queue_limit } in
    Fleet.validate config;
    config
  in
  let config =
    validated
      Term.(
        const make $ tenants $ surge $ overcommit $ steps $ seed
        $ queue_limit)
  in
  let run (c : Fleet.config) collectors check =
    with_check check ~label:"fleet" (fun () ->
        Report.section
          (Printf.sprintf "fleet: %d + %d tenants @ %gx overcommit" c.tenants
             c.surge c.overcommit);
        Svagc_experiments.Exp_fleet.print_results
          (List.map
             (fun kind ->
               Fleet.run
                 ~collector_of:(Exp_common.collector_of kind)
                 ~label:(Exp_common.collector_name kind)
                 c)
             collectors))
  in
  Cmd.v (Cmd.info "fleet" ~doc ~exits)
    Term.(const run $ config $ collectors_arg $ check_arg)

let main =
  let doc = "SVAGC: GC with scalable virtual-address swapping (simulation)" in
  Cmd.group (Cmd.info "svagc" ~version:"1.0.0" ~doc ~exits)
    [
      list_cmd; exp_cmd; bench_cmd; fleet_cmd; trace_cmd; check_cmd;
    ]

(* A kernel error that no layer recovers from (a swap-in whose device
   retry failed on every attempt raises [EIO_swap]) is a typed outcome of
   the run, not a bug: one line on stderr and exit 123.  Anything else
   escaping is reported as cmdliner reports it. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Svagc_fault.Kernel_error.Fault e ->
      prerr_endline ("svagc: " ^ Svagc_fault.Kernel_error.to_string e);
      Cmd.Exit.some_error
    | exception e ->
      Printf.eprintf "svagc: internal error, uncaught exception:\n%s\n%s%!"
        (Printexc.to_string e)
        (Printexc.get_backtrace ());
      Cmd.Exit.internal_error)
