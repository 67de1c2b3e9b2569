type frame = {
  f_name : string;
  f_cat : string;
  f_begin : float;
  f_pid : int;
  f_tid : int;
  f_args : (string * Event.value) list;
  f_counters : (string * int) list;
}

type t = {
  ring : Event.t Ring.t;
  mutable seq : int;
  mutable cursor : float;
  mutable cur_pid : int;
  mutable cur_tid : int;
  mutable stack : frame list;
  mutable counter_source : (unit -> (string * int) list) option;
  mutable procs : (int * string) list;
  mutable threads : ((int * int) * string) list;
}

let cur : t option ref = ref None

let start ?(capacity = 65536) () =
  let t =
    {
      ring = Ring.create ~capacity;
      seq = 0;
      cursor = 0.0;
      cur_pid = 0;
      cur_tid = 0;
      stack = [];
      counter_source = None;
      procs = [];
      threads = [];
    }
  in
  cur := Some t;
  t

let stop () =
  let t = !cur in
  cur := None;
  t

let tracing () = Option.is_some !cur

let current () = !cur

let with_tracer ?capacity f =
  let t = start ?capacity () in
  match f () with
  | v ->
    ignore (stop ());
    (v, t)
  | exception e ->
    ignore (stop ());
    raise e

(* --- context --- *)

let set_counter_source f =
  match !cur with None -> () | Some t -> t.counter_source <- Some f

let set_now ns = match !cur with None -> () | Some t -> t.cursor <- ns

let now () = match !cur with None -> 0.0 | Some t -> t.cursor

let advance ns = match !cur with None -> () | Some t -> t.cursor <- t.cursor +. ns

let set_context ?pid ?tid () =
  match !cur with
  | None -> ()
  | Some t ->
    (match pid with Some p -> t.cur_pid <- p | None -> ());
    (match tid with Some i -> t.cur_tid <- i | None -> ())

let name_process ~pid name =
  match !cur with
  | None -> ()
  | Some t ->
    if not (List.mem_assoc pid t.procs) then t.procs <- (pid, name) :: t.procs

let name_thread ~pid ~tid name =
  match !cur with
  | None -> ()
  | Some t ->
    if not (List.mem_assoc (pid, tid) t.threads) then
      t.threads <- ((pid, tid), name) :: t.threads

(* --- recording --- *)

let sample_counters t =
  match t.counter_source with None -> [] | Some f -> f ()

let push_event t ~ts ~pid ~tid ~cat ~name ~kind ~args =
  let e =
    { Event.seq = t.seq; ts; pid; tid; cat; name; kind; args }
  in
  t.seq <- t.seq + 1;
  Ring.push t.ring e

let span_begin ?(cat = "") ?(args = []) name =
  match !cur with
  | None -> ()
  | Some t ->
    t.stack <-
      {
        f_name = name;
        f_cat = cat;
        f_begin = t.cursor;
        f_pid = t.cur_pid;
        f_tid = t.cur_tid;
        f_args = args;
        f_counters = sample_counters t;
      }
      :: t.stack

let counter_deltas ~before ~after =
  List.filter_map
    (fun (k, v_after) ->
      let v_before = match List.assoc_opt k before with Some v -> v | None -> 0 in
      let d = v_after - v_before in
      if d = 0 then None else Some ("perf." ^ k, Event.Int d))
    after

let span_end ?(args = []) ~dur_ns () =
  match !cur with
  | None -> ()
  | Some t -> (
    match t.stack with
    | [] -> ()
    | frame :: rest ->
      t.stack <- rest;
      let perf_args =
        match frame.f_counters with
        | [] -> []
        | before -> counter_deltas ~before ~after:(sample_counters t)
      in
      push_event t ~ts:frame.f_begin ~pid:frame.f_pid ~tid:frame.f_tid
        ~cat:frame.f_cat ~name:frame.f_name ~kind:(Event.Span dur_ns)
        ~args:(frame.f_args @ args @ perf_args);
      t.cursor <- frame.f_begin +. dur_ns)

let span_abort () =
  match !cur with
  | None -> ()
  | Some t -> (
    match t.stack with [] -> () | _ :: rest -> t.stack <- rest)

let instant ?(cat = "") ?tid ?(advance_ns = 0.0) ?(args = []) name =
  match !cur with
  | None -> ()
  | Some t ->
    let tid = match tid with Some i -> i | None -> t.cur_tid in
    push_event t ~ts:t.cursor ~pid:t.cur_pid ~tid ~cat ~name ~kind:Event.Instant
      ~args;
    if advance_ns > 0.0 then t.cursor <- t.cursor +. advance_ns

(* --- inspection --- *)

let events t = Ring.to_list t.ring

let dropped t = Ring.dropped t.ring

let capacity t = Ring.capacity t.ring

let open_spans t = List.length t.stack

let process_names t = List.sort compare t.procs

let thread_names t = List.sort compare t.threads
