(* Host wall-clock benchmark for the simulation core itself: a 1k-tenant
   imitation fleet driven once by the lockstep reference scan and once by
   the event-driven calendar engine.

   Each tenant is a self-rescheduling process with its own LCG stream:
   5% are hot (hundreds of events at small strides, so same-instant FIFO
   ties are common), the rest mostly idle (a handful of events at large
   strides) — the shape real fleets have, and exactly where the lockstep
   wave loop pays O(tenants) host work per event while the calendar pays
   O(log tenants).  Both engines must leave bit-identical final state
   (per-tenant LCG accumulator, event count and last firing ns) — the
   simulated world cannot tell which engine drove it.

   `dune exec bench/fleet_host_bench.exe` writes BENCH_fleet_host.json
   (canonical JSON, see --output).  `--quick` trims the fleet for CI
   smoke runs. *)

module Engine = Svagc_sched.Engine
module Json = Svagc_trace.Json

let lcg x = ((x * 1103515245) + 12345) land 0x3FFFFFFF

type fleet_state = {
  acc : int array;  (** per-tenant LCG accumulator *)
  fired : int array;  (** per-tenant events fired *)
  last : float array;  (** per-tenant last firing ns *)
}

let hot_every = 20
let hot_budget = 512
let cold_budget = 8

let total_events ~tenants =
  let hot = (tenants + hot_every - 1) / hot_every in
  (hot * hot_budget) + ((tenants - hot) * cold_budget)

(* Fresh single-use procs plus the state they mutate; everything about
   the schedule (entry ns, strides, budgets) is derived from the tenant
   index through the LCG, so every build replays the same fleet. *)
let build ~tenants =
  let state =
    {
      acc = Array.init tenants (fun i -> lcg ((i * 7919) + 17));
      fired = Array.make tenants 0;
      last = Array.make tenants 0.0;
    }
  in
  let procs =
    Array.init tenants (fun i ->
        let hot = i mod hot_every = 0 in
        let budget = if hot then hot_budget else cold_budget in
        let stride_mask = if hot then 63 else 16383 in
        let first_ns = float_of_int (lcg (i * 31) land 1023) in
        Engine.proc ~first_ns (fun ~now ->
            state.acc.(i) <- lcg (state.acc.(i) lxor (state.fired.(i) * 31));
            state.fired.(i) <- state.fired.(i) + 1;
            state.last.(i) <- now;
            if state.fired.(i) >= budget then Engine.done_ns
            else now +. float_of_int (state.acc.(i) land stride_mask)))
  in
  (procs, state)

let replay engine ~tenants =
  let procs, state = build ~tenants in
  let t0 = Sys.time () in
  let fired =
    match engine with
    | `Scan -> Svagc_check.Differential.run_lockstep_scan procs
    | `Calendar -> Engine.run_calendar procs
  in
  (Sys.time () -. t0, fired, state)

(* Best-of-samples over enough whole-fleet replays to dwarf Sys.time's
   granularity; proc construction stays outside the timed region so both
   engines are measured on dispatch alone. *)
let measure engine ~tenants =
  Gc.full_major ();
  let fired = ref 0 and final = ref None in
  let batch reps =
    let t = ref 0.0 in
    for _ = 1 to reps do
      let dt, n, st = replay engine ~tenants in
      t := !t +. dt;
      fired := n;
      final := Some st
    done;
    !t
  in
  let rec calibrate reps =
    let t = batch reps in
    if t >= 0.1 || reps >= 1024 then (reps, t /. float_of_int reps)
    else calibrate (reps * 4)
  in
  let reps, first = calibrate 1 in
  let best = ref first in
  for _ = 1 to 3 do
    let per = batch reps /. float_of_int reps in
    if per < !best then best := per
  done;
  match !final with
  | None -> assert false
  | Some st -> (!best, !fired, st)

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let out =
    let rec find = function
      | ("-o" | "--output") :: file :: _ -> file
      | _ :: tl -> find tl
      | [] -> "BENCH_fleet_host.json"
    in
    find args
  in
  let tenants = if quick then 200 else 1000 in
  Printf.printf "fleet host: %d tenants, %d events:%!" tenants
    (total_events ~tenants);
  let scan_s, scan_fired, scan_st = measure `Scan ~tenants in
  Printf.printf " lockstep-scan%!";
  let cal_s, cal_fired, cal_st = measure `Calendar ~tenants in
  Printf.printf " calendar\n%!";
  if scan_fired <> cal_fired then
    failwith
      (Printf.sprintf "event counts diverged: scan %d vs calendar %d"
         scan_fired cal_fired);
  if
    scan_st.acc <> cal_st.acc
    || scan_st.fired <> cal_st.fired
    || scan_st.last <> cal_st.last
  then failwith "final fleet state diverged between the engines";
  let events = float_of_int scan_fired in
  let per_event s = s *. 1e9 /. events in
  let speedup = scan_s /. cal_s in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "fleet_host_bench");
        ("unit", Json.Str "host ns per simulated event (Sys.time)");
        ("quick", Json.Bool quick);
        ("tenants", Json.Int tenants);
        ("events_per_replay", Json.Int scan_fired);
        ( "lockstep_scan",
          Json.Obj
            [
              ("host_s_per_replay", Json.Float scan_s);
              ("host_ns_per_event", Json.Float (per_event scan_s));
            ] );
        ( "calendar",
          Json.Obj
            [
              ("host_s_per_replay", Json.Float cal_s);
              ("host_ns_per_event", Json.Float (per_event cal_s));
            ] );
        ("final_state_identical", Json.Bool true);
        ("host_speedup_calendar_vs_scan", Json.Float speedup);
      ]
  in
  let oc = open_out out in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  Printf.printf
    "host ns/event: scan %.0f vs calendar %.0f — calendar %.1fx faster\n"
    (per_event scan_s) (per_event cal_s) speedup;
  (* Full runs gate on the calendar clearly beating the O(n)-per-event
     scan at 1k tenants; --quick smoke runs only report the ratio (small
     fleets and noisy CI neighbours make a hard perf gate flaky). *)
  if (not quick) && speedup < 3.0 then begin
    Printf.eprintf "FAIL: expected >= 3x, got %.2fx\n" speedup;
    exit 1
  end
