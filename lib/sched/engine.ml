let done_ns = neg_infinity

type proc = {
  first : float;
  fire : now:float -> float;
}

let proc ~first_ns fire =
  if not (first_ns >= 0.0 && first_ns < infinity) then
    invalid_arg "Engine.proc: first_ns must be finite non-negative sim ns";
  { first = first_ns; fire }

let first_ns p = p.first

let fire p ~now =
  let nxt = p.fire ~now in
  if nxt <> done_ns && not (nxt >= now && nxt < infinity) then
    invalid_arg "Engine: a process rescheduled itself before now";
  nxt

let run_calendar ?perf procs =
  let n = Array.length procs in
  let cal = Calendar.create ~capacity:(max 16 n) ?perf () in
  (* Initial insertion in array order assigns seq 0..n-1; every
     reschedule then takes the next seq — so ties fire FIFO. *)
  Array.iteri (fun i p -> ignore (Calendar.schedule cal ~ns:p.first i)) procs;
  let fired = ref 0 in
  let running = ref true in
  while !running do
    match Calendar.pop cal with
    | None -> running := false
    | Some (i, now) ->
        let nxt = fire procs.(i) ~now in
        incr fired;
        if nxt <> done_ns then ignore (Calendar.schedule cal ~ns:nxt i)
  done;
  !fired
