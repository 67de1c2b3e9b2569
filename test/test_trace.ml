(* Tests for svagc_trace: the ring buffer, the JSON codec, the recorder's
   span/instant semantics, and whole-trace properties (determinism across
   identical seeded runs, overflow safety) on real simulated workloads. *)

module Ring = Svagc_trace.Ring
module Json = Svagc_trace.Json
module Event = Svagc_trace.Event
module Tracer = Svagc_trace.Tracer
module Chrome = Svagc_trace.Chrome_trace
module Machine = Svagc_vmem.Machine
module Perf = Svagc_vmem.Perf
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload

let qtest ?(count = 30) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Ensure no tracer leaks between test cases. *)
let isolated f () =
  ignore (Tracer.stop ());
  Fun.protect ~finally:(fun () -> ignore (Tracer.stop ())) f

(* --- Ring --- *)

let test_ring_overflow_drops_oldest () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "keeps newest window" [ 7; 8; 9; 10 ] (Ring.to_list r);
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r);
  Alcotest.(check int) "dropped reset" 0 (Ring.dropped r)

let prop_ring_window =
  qtest ~count:100 "ring keeps the newest min(cap, n) elements"
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_bound 60) int))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected_len = min cap n in
      let expected =
        List.filteri (fun i _ -> i >= n - expected_len) xs
      in
      Ring.to_list r = expected
      && Ring.length r = expected_len
      && Ring.dropped r = max 0 (n - cap))

(* --- Json --- *)

let test_json_parse_basics () =
  let j = Json.of_string {|{"a": [1, 2.5, "x\n\"y\"", true, null], "b": {}}|} in
  (match Json.member "a" j with
  | Some (Json.List [ Json.Int 1; Json.Float f; Json.Str s; Json.Bool true; Json.Null ])
    ->
    Alcotest.(check (float 1e-9)) "float" 2.5 f;
    Alcotest.(check string) "escapes" "x\n\"y\"" s
  | _ -> Alcotest.fail "unexpected parse of field a");
  match Json.member "b" j with
  | Some (Json.Obj []) -> ()
  | _ -> Alcotest.fail "unexpected parse of field b"

let test_json_rejects_malformed () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed %S" s
  in
  List.iter rejects [ "{"; "[1,]"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "" ]

let json_gen =
  let open QCheck.Gen in
  let str_gen =
    string_size ~gen:(oneof [ char_range 'a' 'z'; return '"'; return '\\'; return '\n' ])
      (int_bound 12)
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.Str s) str_gen;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair str_gen (self (depth - 1)))) );
          ])
    3

let prop_json_roundtrip =
  qtest ~count:200 "to_string |> of_string round-trips"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j -> Json.of_string (Json.to_string j) = j)

(* --- Tracer semantics --- *)

let test_disabled_noops () =
  isolated
    (fun () ->
      Alcotest.(check bool) "not tracing" false (Tracer.tracing ());
      (* All entry points must be safe no-ops with no tracer installed. *)
      Tracer.span_begin ~cat:"x" "a";
      Tracer.span_end ~dur_ns:5.0 ();
      Tracer.span_abort ();
      Tracer.instant "i";
      Tracer.set_now 42.0;
      Tracer.advance 1.0;
      Tracer.set_context ~pid:3 ~tid:4 ();
      Alcotest.(check (float 0.0)) "now is 0 when disabled" 0.0 (Tracer.now ()))
    ()

let test_span_perf_attribution () =
  isolated
    (fun () ->
      let t = Tracer.start ~capacity:16 () in
      let counter = ref 0 in
      Tracer.set_counter_source (fun () -> [ ("widgets", !counter) ]);
      Tracer.set_context ~pid:7 ~tid:2 ();
      Tracer.set_now 100.0;
      Tracer.span_begin ~cat:"gc" ~args:[ ("k", Event.Str "v") ] "work";
      counter := 5;
      Tracer.span_end ~dur_ns:50.0 ();
      ignore (Tracer.stop ());
      match Tracer.events t with
      | [ e ] ->
        Alcotest.(check string) "name" "work" e.Event.name;
        Alcotest.(check int) "pid" 7 e.Event.pid;
        Alcotest.(check int) "tid" 2 e.Event.tid;
        Alcotest.(check (float 1e-9)) "ts" 100.0 e.Event.ts;
        Alcotest.(check (float 1e-9)) "dur" 50.0 (Event.dur_ns e);
        (match List.assoc_opt "perf.widgets" e.Event.args with
        | Some (Event.Int 5) -> ()
        | _ -> Alcotest.fail "missing perf delta arg");
        (match List.assoc_opt "k" e.Event.args with
        | Some (Event.Str "v") -> ()
        | _ -> Alcotest.fail "missing begin arg")
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))
    ()

let test_nested_spans_and_cursor () =
  isolated
    (fun () ->
      let t = Tracer.start ~capacity:16 () in
      Tracer.span_begin "outer";
      Tracer.span_begin "inner";
      Tracer.span_end ~dur_ns:5.0 ();
      Alcotest.(check (float 1e-9)) "cursor after inner" 5.0 (Tracer.now ());
      Tracer.instant ~advance_ns:2.0 "tick";
      Alcotest.(check (float 1e-9)) "instant advanced" 7.0 (Tracer.now ());
      Tracer.span_end ~dur_ns:20.0 ();
      Alcotest.(check (float 1e-9)) "outer end snaps cursor" 20.0 (Tracer.now ());
      ignore (Tracer.stop ());
      let names = List.map (fun e -> e.Event.name) (Tracer.events t) in
      Alcotest.(check (list string)) "record order: completion order"
        [ "inner"; "tick"; "outer" ] names;
      let outer =
        List.find (fun e -> e.Event.name = "outer") (Tracer.events t)
      in
      let tick = List.find (fun e -> e.Event.name = "tick") (Tracer.events t) in
      Alcotest.(check (float 1e-9)) "outer began at 0" 0.0 outer.Event.ts;
      Alcotest.(check (float 1e-9)) "tick inside outer" 5.0 tick.Event.ts)
    ()

let test_unbalanced_and_abort () =
  isolated
    (fun () ->
      let t = Tracer.start ~capacity:16 () in
      Tracer.span_end ~dur_ns:5.0 ();
      (* no open span: ignored *)
      Tracer.span_begin "doomed";
      Tracer.span_abort ();
      Tracer.span_end ~dur_ns:1.0 ();
      (* stack empty again: ignored *)
      ignore (Tracer.stop ());
      Alcotest.(check int) "nothing recorded" 0 (List.length (Tracer.events t));
      Alcotest.(check int) "no open spans" 0 (Tracer.open_spans t))
    ()

(* --- Whole-trace properties on a real workload --- *)

let traced_run ?(capacity = 65536) ?(jvms = 1) () =
  let workload = Svagc_workloads.Spec.find "fft.small" in
  ignore (Tracer.start ~capacity () : Tracer.t);
  let machine = Machine.create ~phys_mib:256 Svagc_vmem.Cost_model.xeon_6130 in
  Tracer.set_counter_source (fun () -> Perf.to_assoc machine.Machine.perf);
  let collector_of = Svagc_core.Svagc.collector ~config:Svagc_core.Config.default in
  if jvms <= 1 then
    ignore (Runner.run ~steps:10 ~min_gcs:2 ~machine ~collector_of workload)
  else begin
    let steppers = Array.make jvms (fun () -> ()) in
    let (_ : Svagc_core.Multi_jvm.t) =
      Svagc_core.Multi_jvm.create machine ~instances:jvms
        ~spawn:(fun ~index machine ->
          let jvm = Runner.make_jvm ~machine ~collector_of workload in
          let rng = Svagc_util.Rng.create ~seed:(1000 + index) in
          steppers.(index) <- workload.Workload.setup jvm rng;
          jvm)
    in
    (* Enough mutator steps that every instance triggers at least one GC. *)
    for _ = 1 to 60 do
      Array.iter (fun stepper -> stepper ()) steppers
    done
  end;
  match Tracer.stop () with
  | Some t -> t
  | None -> Alcotest.fail "tracer vanished mid-run"

let test_trace_deterministic () =
  isolated
    (fun () ->
      let a = Chrome.to_string (traced_run ()) in
      let b = Chrome.to_string (traced_run ()) in
      Alcotest.(check bool) "byte-identical traces for identical seeds" true
        (String.equal a b))
    ()

let test_trace_contains_phases_and_instants () =
  isolated
    (fun () ->
      let t = traced_run () in
      let names = List.map (fun e -> e.Event.name) (Tracer.events t) in
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true
            (List.mem phase names))
        [ "svagc"; "mark"; "forward"; "adjust"; "compact" ];
      Alcotest.(check bool) "kernel instants present" true
        (List.exists (fun n -> n = "memmove" || n = "swapva" || n = "swapva.aggregated") names);
      Alcotest.(check bool) "per-core ipi instants present" true
        (List.mem "ipi" names);
      let ipi_tids =
        List.filter_map
          (fun e -> if e.Event.name = "ipi" then Some e.Event.tid else None)
          (Tracer.events t)
        |> List.sort_uniq compare
      in
      Alcotest.(check bool) "ipis span multiple cores" true
        (List.length ipi_tids > 1))
    ()

let test_multi_jvm_tracks () =
  isolated
    (fun () ->
      let t = traced_run ~jvms:2 () in
      let pids =
        List.map (fun e -> e.Event.pid) (Tracer.events t) |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "one track per instance" [ 0; 1 ] pids;
      Alcotest.(check bool) "process names registered" true
        (List.length (Tracer.process_names t) >= 2))
    ()

let test_overflow_keeps_export_valid () =
  isolated
    (fun () ->
      let t = traced_run ~capacity:128 () in
      Alcotest.(check bool) "overflowed" true (Tracer.dropped t > 0);
      Alcotest.(check int) "bounded" 128 (List.length (Tracer.events t));
      let json = Json.of_string (Chrome.to_string t) in
      let events =
        match Json.member "traceEvents" json with
        | Some l -> Json.to_list_exn l
        | None -> Alcotest.fail "no traceEvents"
      in
      (* metadata + at most capacity events, all well-formed objects *)
      Alcotest.(check bool) "bounded export" true (List.length events <= 128 + 8);
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.Str ("X" | "i" | "M")) -> ()
          | _ -> Alcotest.fail "bad event phase")
        events;
      match Json.member "otherData" json with
      | Some other -> (
        match Json.member "droppedEvents" other with
        | Some (Json.Int d) ->
          Alcotest.(check bool) "dropped recorded in export" true (d > 0)
        | _ -> Alcotest.fail "droppedEvents missing")
      | None -> Alcotest.fail "otherData missing")
    ()

let test_chrome_sorted_by_ts () =
  isolated
    (fun () ->
      let t = traced_run () in
      let json = Json.of_string (Chrome.to_string t) in
      let events =
        Json.member "traceEvents" json |> Option.get |> Json.to_list_exn
      in
      let tss =
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "ts" e, Json.member "pid" e) with
            | Some (Json.Str "M"), _, _ -> None
            | _, Some ts, Some (Json.Int pid) ->
              Some (pid, Json.number_exn ts)
            | _ -> None)
          events
      in
      let ok = ref true in
      List.fold_left
        (fun prev (_pid, ts) ->
          (match prev with Some p when ts < p -> ok := false | _ -> ());
          Some ts)
        None tss
      |> ignore;
      Alcotest.(check bool) "timestamps monotone in export" true !ok)
    ()

let () =
  Alcotest.run "svagc_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow drops oldest" `Quick
            test_ring_overflow_drops_oldest;
          prop_ring_window;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          prop_json_roundtrip;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_noops;
          Alcotest.test_case "span perf attribution" `Quick
            test_span_perf_attribution;
          Alcotest.test_case "nested spans, cursor" `Quick
            test_nested_spans_and_cursor;
          Alcotest.test_case "unbalanced/abort" `Quick test_unbalanced_and_abort;
        ] );
      ( "whole-trace",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_trace_deterministic;
          Alcotest.test_case "phases and instants" `Quick
            test_trace_contains_phases_and_instants;
          Alcotest.test_case "multi-jvm tracks" `Quick test_multi_jvm_tracks;
          Alcotest.test_case "overflow keeps export valid" `Quick
            test_overflow_keeps_export_valid;
          Alcotest.test_case "export sorted" `Quick test_chrome_sorted_by_ts;
        ] );
    ]
