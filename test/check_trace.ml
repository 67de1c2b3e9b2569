(* Smoke checker for `svagc_cli trace` output:
   `check_trace FILE [SPAN...]`.  The file must parse as Chrome
   trace-event JSON, hold at least one event, and contain a complete span
   for every SPAN named (the LISP2 runtest rules name mark, forward,
   adjust and compact).  Exits non-zero with a message otherwise.  On
   success it prints the event and span counts and the file's MD5, so a
   runtest golden in test/dune pins the exported bytes. *)

module Json = Svagc_trace.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_trace: " ^ m); exit 1) fmt

let () =
  let file, required =
    match Array.to_list Sys.argv with
    | _ :: file :: spans -> (file, spans)
    | _ -> fail "usage: check_trace FILE [SPAN...]"
  in
  let contents =
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let json =
    try Json.of_string contents
    with Json.Parse_error msg -> fail "%s does not parse: %s" file msg
  in
  let events =
    match Json.member "traceEvents" json with
    | Some l -> ( try Json.to_list_exn l with _ -> fail "traceEvents is not a list")
    | None -> fail "no traceEvents field"
  in
  if events = [] then fail "traceEvents is empty";
  let span_names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "X"), Some (Json.Str name) -> Some name
        | _ -> None)
      events
  in
  List.iter
    (fun phase ->
      if not (List.mem phase span_names) then
        fail "%s has no %S phase span" file phase)
    required;
  Printf.printf "check_trace: %s ok (%d events, %d spans, md5 %s)\n" file
    (List.length events) (List.length span_names)
    (Digest.to_hex (Digest.file file))
