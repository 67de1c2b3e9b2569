(* The repository's end-to-end benchmark.

     main.exe run --workload W [--seed N] [--seconds S] [--trace [0|1]]
                  [--toy] [-o REPORT.json]
     main.exe compare PARENT_DIR CHANGE_DIR
     main.exe validate [--spec BENCHMARK.json] OUTPUT...

   [run] first replays the workload at toy size under the shadow oracle
   (the correctness gate), then repeats whole batches of the workload for
   [--seconds] of host time and reports medians, with host times scaled to
   a reference host speed ([Prof.Host_speed]).  Untraced, it prints the
   end-to-end metrics; with [--trace] it alternates untraced and traced
   batches, checks that both reach the same simulated digest, and prints
   the per-layer metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  The process
   runs on one OCaml domain and exits non-zero when any check fails. *)

module Json = Svagc_trace.Json
module Histogram = Svagc_util.Histogram
module Exp_common = Svagc_experiments.Exp_common
module Check = Svagc_check.Check

let fail_usage msg =
  prerr_endline ("main.exe: " ^ msg);
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Scenario.size;
  out : string option;
}

let parse_run args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: tl -> go { o with workload = w } tl
    | "--seed" :: n :: tl -> (
      match int_of_string_opt n with
      | Some seed -> go { o with seed } tl
      | None -> fail_usage ("bad --seed " ^ n))
    | "--seconds" :: s :: tl -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> go { o with seconds } tl
      | _ -> fail_usage ("bad --seconds " ^ s))
    | "--trace" :: ("0" | "1" as v) :: tl -> go { o with trace = v = "1" } tl
    | "--trace" :: tl -> go { o with trace = true } tl
    | "--toy" :: tl -> go { o with size = Scenario.Toy } tl
    | ("-o" | "--output") :: f :: tl -> go { o with out = Some f } tl
    | a :: _ -> fail_usage ("unexpected argument " ^ a)
  in
  go
    {
      workload = "";
      seed = 42;
      seconds = 20.0;
      trace = false;
      size = Scenario.Full;
      out = None;
    }
    args

(* --- Measurement -------------------------------------------------------- *)

type sample = {
  setup_ns : int;  (** batch start to the first JVM construction *)
  wall_ns : int;  (** first JVM construction to the end of the batch *)
  speed : float;
      (** [Host_speed.nominal_ns] over the reference kernel's time just
          before and after the batch: 1 on the reference host at rest,
          below 1 when the host runs slow *)
  outcome : Scenario.outcome;
}

(* Host times scaled to the reference host's speed. *)
let norm_s s ns = float_of_int ns *. s.speed /. 1e9

(* The first call into [collector_of] is the first JVM construction. *)
let batch w size ~seed ~collector_of ~root =
  Gc.full_major ();
  let first = ref (-1) in
  let collector_of heap =
    if !first < 0 then first := Prof.now ();
    collector_of heap
  in
  let t0 = Prof.now () in
  let outcome = root (fun () -> Scenario.run w size ~seed ~collector_of) in
  let t2 = Prof.now () in
  let t1 = if !first < 0 then t2 else !first in
  { setup_ns = t1 - t0; wall_ns = t2 - t1; speed = 1.0; outcome }

(* Brackets a batch with the reference kernel. *)
let timed run =
  let before = Prof.Host_speed.kernel_ns () in
  let s = run () in
  let ref_ns = (before + Prof.Host_speed.kernel_ns ()) / 2 in
  { s with speed = float_of_int Prof.Host_speed.nominal_ns /. float_of_int ref_ns }

let untraced_batch (w : Scenario.t) size ~seed =
  batch w size ~seed ~collector_of:(Exp_common.collector_of w.collector)
    ~root:(fun f -> f ())

let root_section (w : Scenario.t) =
  Prof.section
    (match w.family with
    | Scenario.Fleet_family -> "fleet.driver"
    | Scenario.Suite_family -> "workloads.driver")

let traced_batch (w : Scenario.t) size ~seed =
  let collector_of, cycles = Scenario.traced_collector_of w.collector in
  let s_root = root_section w in
  Prof.Host_gc.poll ();
  Prof.Host_gc.collecting := true;
  let s = batch w size ~seed ~collector_of ~root:(Prof.time s_root) in
  Prof.Host_gc.poll ();
  Prof.Host_gc.collecting := false;
  (s, List.rev !cycles)

(* The gate: the same workload at toy size under the shadow oracle. *)
let gate (w : Scenario.t) ~seed =
  Check.enable ~label:("e2e-" ^ w.name) ();
  let failed =
    match
      Scenario.run w Scenario.Toy ~seed
        ~collector_of:(Exp_common.collector_of w.collector)
    with
    | o -> o.Scenario.failed
    | exception e ->
      prerr_endline ("gate: " ^ Printexc.to_string e);
      1
  in
  let findings =
    match Check.disable () with Some r -> r.Check.findings | None -> []
  in
  List.iter
    (fun f -> Format.eprintf "gate finding: %a@." Check.pp_finding f)
    findings;
  failed = 0 && findings = []

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
      | Some kb -> float_of_int kb *. 1024.0 /. 1e6
      | None -> scan ())
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- Metrics ------------------------------------------------------------- *)

let secs ns = float_of_int ns /. 1e9
let ms ns = ns /. 1e6

let end_to_end_metrics (w : Scenario.t) samples ~rss_mb =
  let o = (List.hd samples).outcome in
  let med f = Metrics.median (List.map f samples) in
  [
    ("wall_s", med (fun s -> norm_s s s.wall_ns));
    ("setup_s", med (fun s -> norm_s s s.setup_ns));
    ( "steps_per_s",
      med (fun s -> float_of_int s.outcome.Scenario.steps /. norm_s s s.wall_ns)
    );
    ("peak_rss_mb", rss_mb);
    ("sim_pause_p50_ms", ms (Histogram.p50 o.Scenario.pauses));
    ( "sim_pause_tail_ms",
      ms (Histogram.quantile o.Scenario.pauses (Scenario.tail_quantile w)) );
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_layer_metrics ~untraced ~traced ~cycles =
  let n = float_of_int (List.length traced) in
  let o = (List.hd traced).outcome in
  let edges = Prof.edges () in
  let section name =
    let self, calls, words =
      List.fold_left
        (fun (s, c, w) e ->
          if e.Prof.name = name then
            (s + e.Prof.e_self_ns, c + e.Prof.e_calls, w +. e.Prof.e_words)
          else (s, c, w))
        (0, 0, 0.0) edges
    in
    [
      (name ^ ".self_ms", float_of_int self /. n /. 1e6);
      (name ^ ".calls", float_of_int calls /. n);
      (name ^ ".ns_per_call", ratio self calls);
      (name ^ ".alloc_mwords", words /. n /. 1e6);
    ]
  in
  let c = Scenario.counter o.Scenario.perf in
  let sum f = List.fold_left (fun acc cy -> acc +. f cy) 0.0 cycles in
  let isum f = List.fold_left (fun acc cy -> acc + f cy) 0 cycles in
  let traced_ns = List.fold_left (fun a s -> a + s.setup_ns + s.wall_ns) 0 traced in
  let med l = Metrics.median (List.map (fun s -> norm_s s s.wall_ns) l) in
  let per_batch r = float_of_int !r /. n in
  List.concat_map section Metrics.sections
  @ Prof.Host_gc.
      [
        ("ocaml_gc.minor_ms", per_batch minor_ns /. 1e6);
        ("ocaml_gc.minor_count", per_batch minor_count);
        ("ocaml_gc.major_ms", per_batch major_ns /. 1e6);
        ("ocaml_gc.major_count", per_batch major_count);
        ("ocaml_gc.lost_events", float_of_int !lost);
      ]
  @ List.map (fun name -> (name, float_of_int (c name))) Metrics.counters
  @ [
      ("reclaim.scan_efficiency", ratio (c "pages_swapped_out") (c "reclaim_scans"));
      ( "gc.swap_fraction",
        ratio
          (isum (fun cy -> cy.Svagc_gc.Gc_stats.swapped_objects))
          (isum (fun cy -> cy.Svagc_gc.Gc_stats.moved_objects)) );
      ("tier.promotion_ratio", ratio (c "tier_promotions") (c "major_faults"));
      ("sim.mark_ms", ms (sum (fun cy -> cy.Svagc_gc.Gc_stats.mark_ns)));
      ("sim.forward_ms", ms (sum (fun cy -> cy.Svagc_gc.Gc_stats.forward_ns)));
      ("sim.adjust_ms", ms (sum (fun cy -> cy.Svagc_gc.Gc_stats.adjust_ns)));
      ("sim.compact_ms", ms (sum (fun cy -> cy.Svagc_gc.Gc_stats.compact_ns)));
      ("sim_total_s", o.Scenario.total_ns /. 1e9);
      ("sim_pause_p99_ms", ms (Histogram.p99 o.Scenario.pauses));
      ("sim_pause_samples", float_of_int (Histogram.count o.Scenario.pauses));
      ("sim_stall_p99_ms", ms (Histogram.p99 o.Scenario.stalls));
      ("trace_overhead_frac", (med traced /. med untraced) -. 1.0);
      ( "host.raw_wall_s",
        Metrics.median (List.map (fun s -> secs s.wall_ns) untraced) );
      ("host.speed", Metrics.median (List.map (fun s -> s.speed) untraced));
      ( "trace.attributed_frac",
        float_of_int (Prof.total_self_ns ()) /. float_of_int traced_ns );
    ]

let metric_json (name, v) =
  let m =
    match Metrics.find name with
    | Some m -> m
    | None -> invalid_arg ("uncatalogued metric " ^ name)
  in
  let value =
    if m.Metrics.unit_ = "count" then Json.Int (int_of_float v) else Json.Float v
  in
  (name, Json.Obj [ ("value", value); ("unit", Json.Str m.Metrics.unit_) ])

(* --- run ----------------------------------------------------------------- *)

let measure o (w : Scenario.t) =
  let gate_ok = gate w ~seed:o.seed in
  if o.trace then Prof.Host_gc.start ();
  (* The first batch grows the host heap from nothing and pays the kernel's
     page faults for it, so it is checked but not timed.  The process peak
     is read right after it: later batches do not fully reuse the heap it
     grew, so a peak read after several batches overstates what one batch
     needs. *)
  let warmup = untraced_batch w o.size ~seed:o.seed in
  let rss_mb = peak_rss_mb () in
  let deadline = Prof.now () + int_of_float (o.seconds *. 1e9) in
  let untraced = ref [] and traced = ref [] and cycles = ref [] in
  let u () =
    untraced := timed (fun () -> untraced_batch w o.size ~seed:o.seed) :: !untraced
  in
  let t () =
    let run () =
      let s, c = traced_batch w o.size ~seed:o.seed in
      cycles := c;
      s
    in
    traced := timed run :: !traced
  in
  (* Traced runs alternate which side goes first, so neither gets the
     warmer host heap every time.  A round starts only if one more round as
     long as the last still ends by the deadline. *)
  let rec loop i =
    let start = Prof.now () in
    if not o.trace then u ()
    else if i mod 2 = 0 then (u (); t ())
    else (t (); u ());
    let now = Prof.now () in
    if now + (now - start) <= deadline then loop (i + 1)
  in
  loop 0;
  let all = (warmup :: !untraced) @ !traced in
  let digests = List.sort_uniq compare (List.map (fun s -> s.outcome.Scenario.digest) all) in
  if List.length digests > 1 then
    prerr_endline "digest mismatch: batches of one seed disagree";
  let sum f = List.fold_left (fun a s -> a + f s.outcome) 0 all in
  let attempted = sum (fun o -> o.Scenario.attempted) in
  let failed = sum (fun o -> o.Scenario.failed) in
  let metrics =
    if o.trace then
      per_layer_metrics ~untraced:!untraced ~traced:!traced ~cycles:!cycles
    else end_to_end_metrics w !untraced ~rss_mb
  in
  let attributed_ok =
    (not o.trace) || List.assoc "trace.attributed_frac" metrics >= 0.99
  in
  if not attributed_ok then
    prerr_endline "sections cover less than 99% of the traced wall time";
  let metrics =
    List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) metrics
  in
  let correct =
    gate_ok && List.length digests = 1 && failed = 0 && attributed_ok
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj (List.map metric_json metrics));
      ]
  in
  let report =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Int o.seed);
        ("trace", Json.Bool o.trace);
        ("toy", Json.Bool (o.size = Scenario.Toy));
        ("seconds", Json.Float o.seconds);
        ( "batch_wall_s",
          Json.List (List.rev_map (fun s -> Json.Float (secs s.wall_ns)) !untraced) );
        ( "batch_speed",
          Json.List (List.rev_map (fun s -> Json.Float s.speed) !untraced) );
        ( "traced_batch_wall_s",
          Json.List (List.rev_map (fun s -> Json.Float (secs s.wall_ns)) !traced) );
        ( "host",
          Json.Obj
            [
              ("clock", Json.Str "bechamel.monotonic_clock");
              ("cores", Json.Int (Domain.recommended_domain_count ()));
              ("domains", Json.Int 1);
              ("ocaml", Json.Str Sys.ocaml_version);
            ] );
        ("digest", Json.Str (String.concat "," digests));
        ( "sections",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("name", Json.Str e.Prof.name);
                     ("parent", Json.Str e.Prof.parent);
                     ("self_ns", Json.Int e.Prof.e_self_ns);
                     ("calls", Json.Int e.Prof.e_calls);
                     ("alloc_words", Json.Float e.Prof.e_words);
                   ])
               (Prof.edges ())) );
        ("result", result);
      ]
  in
  Option.iter
    (fun f ->
      let oc = open_out f in
      Json.to_channel oc report;
      output_char oc '\n';
      close_out oc)
    o.out;
  List.iter
    (fun (n, v) ->
      let m = Option.get (Metrics.find n) in
      Printf.printf "%-32s %14.6g %s\n" n v m.Metrics.unit_)
    metrics;
  print_endline (Json.to_string result);
  if not correct then exit 1

let run args =
  let o = parse_run args in
  match Scenario.find o.workload with
  | None ->
    fail_usage
      ("unknown --workload '" ^ o.workload ^ "'; one of: "
      ^ String.concat ", " (List.map (fun w -> w.Scenario.name) Scenario.all))
  | Some w ->
    Svagc_par.Domain_pool.with_global ~domains:1 (fun () -> measure o w)

(* --- validate -------------------------------------------------------------- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline s)
    fmt

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Json.Parse_error ("missing key " ^ k))

(* The result of a [-o] report must be correct and carry exactly one
   catalogue's metrics, each with its catalogued unit. *)
let validate_output file =
  let j = member_exn "result" (Json.of_string (String.trim (read_file file))) in
  if member_exn "correct" j <> Json.Bool true then error "%s: not correct" file;
  match member_exn "metrics" j with
  | Json.Obj kvs ->
    let names = List.sort compare (List.map fst kvs) in
    let expect l = List.sort compare (List.map (fun m -> m.Metrics.name) l) in
    if names <> expect Metrics.end_to_end && names <> expect Metrics.per_layer
    then error "%s: metric set matches neither catalogue" file;
    List.iter
      (fun (n, v) ->
        let u = Json.string_exn (member_exn "unit" v) in
        ignore (Json.number_exn (member_exn "value" v));
        match Metrics.find n with
        | Some m when m.Metrics.unit_ = u -> ()
        | _ -> error "%s: %s has unit %s" file n u)
      kvs
  | _ -> error "%s: metrics is not an object" file

(* BENCHMARK.json must list this benchmark: the same workloads and why
   lines, the same metrics with the same units, directions and bounds. *)
let validate_spec file =
  let j = Json.of_string (read_file file) in
  let str k v = Json.string_exn (member_exn k v) in
  let listed key row = List.map row (Json.to_list_exn (member_exn key j)) in
  if listed "workloads" (fun v -> (str "name" v, str "why" v))
     <> List.map (fun w -> (w.Scenario.name, w.Scenario.why)) Scenario.all
  then error "%s: workloads differ from the benchmark's" file;
  let check key catalogue ~bounded =
    let bound v = if bounded then Json.number_exn (member_exn "bound" v) else 0.0 in
    if listed key (fun v -> (str "name" v, str "unit" v, str "better" v, bound v))
       <> List.map
            (fun m ->
              Metrics.(m.name, m.unit_, better_name m.better, m.bound))
            catalogue
    then error "%s: %s differs from the catalogue" file key
  in
  check "end_to_end" Metrics.end_to_end ~bounded:true;
  check "per_layer" Metrics.per_layer ~bounded:false

let validate args =
  let rec go = function
    | "--spec" :: f :: tl ->
      validate_spec f;
      go tl
    | f :: tl ->
      validate_output f;
      go tl
    | [] -> ()
  in
  (try go args
   with Json.Parse_error e | Sys_error e -> error "validate: %s" e);
  if !errors > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "compare" :: args -> Compare.main args
  | "validate" :: args -> validate args
  | args -> run args
