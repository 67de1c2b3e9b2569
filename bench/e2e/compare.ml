(* [compare PARENT_DIR CHANGE_DIR]: the decision rule for a change that
   claims a gain or must show no regression.

   Each directory holds the [-o] reports of one commit.  Reports are
   grouped by workload and trace mode and paired in file-name order, so
   runs made alternately (parent, change, parent, ...) and numbered pair
   by pair line up.  For every metric it prints each side's median and
   quartiles, how many pairs the change won, and a verdict.

   Simulated metrics and counts compare pair by pair, since both sides of a
   pair ran the same seed:
   - same: identical in every pair;
   - REGRESSED: the change's median is worse by more than the bound;
   - CHANGED: moved otherwise.

   Host metrics:
   - gain: the change won at least 9/10 of the pairs (ties count for
     neither side) and the medians differ, in its favour, by more than the
     parent's own interquartile range;
   - unresolved: the parent's interquartile range, as a share of its
     median, exceeds the metric's bound, and not every change run beats
     every parent run;
   - REGRESSED: the change's median is worse than the parent's by more
     than the bound;
   - ok: within the bound;
   - "-": a per-layer metric, which has no bound, that is not a gain.

   The exit code is 1 when anything regressed and 2 when a workload has
   fewer than ten pairs. *)

module Json = Svagc_trace.Json

let min_pairs = 10

type run = { key : string; metrics : (string * float) list }

let load dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let j =
           Json.of_string
             (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
         in
         let get k = Option.get (Json.member k j) in
         let key =
           Json.string_exn (get "workload")
           ^ if get "trace" = Json.Bool true then " (traced)" else ""
         in
         let metrics =
           match Option.bind (Json.member "result" j) (Json.member "metrics") with
           | Some (Json.Obj kvs) ->
             List.map
               (fun (n, v) -> (n, Json.number_exn (Option.get (Json.member "value" v))))
               kvs
           | _ -> []
         in
         { key; metrics })

let better (m : Metrics.metric) a b =
  match m.Metrics.better with Metrics.Lower -> a < b | Metrics.Higher -> a > b

let verdict (m : Metrics.metric) parent change =
  let n = List.length parent in
  let mp = Metrics.median parent and mc = Metrics.median change in
  let q1, q3 = Metrics.quartiles parent in
  let wins = List.fold_left2 (fun a p c -> if better m c p then a + 1 else a) 0 parent change in
  let identical = List.for_all2 ( = ) parent change in
  let gain = 10 * wins >= 9 * n && better m mc mp && Float.abs (mc -. mp) > q3 -. q1 in
  let worse_by =
    if mp = 0.0 then 0.0
    else
      match m.Metrics.better with
      | Metrics.Lower -> (mc -. mp) /. Float.abs mp
      | Metrics.Higher -> (mp -. mc) /. Float.abs mp
  in
  let spread = if mp = 0.0 then 0.0 else (q3 -. q1) /. Float.abs mp in
  let dominates =
    List.for_all (fun c -> List.for_all (fun p -> better m c p) parent) change
  in
  let v =
    if m.Metrics.exact then
      if identical then "same"
      else if m.Metrics.bound > 0.0 && worse_by > m.Metrics.bound then "REGRESSED"
      else "CHANGED"
    else if gain then "gain"
    else if m.Metrics.bound = 0.0 then "-"
    else if spread > m.Metrics.bound && not dominates then "unresolved"
    else if worse_by > m.Metrics.bound then "REGRESSED"
    else "ok"
  in
  (wins, v)

let main args =
  let parent_dir, change_dir =
    match args with
    | [ p; c ] -> (p, c)
    | _ ->
      prerr_endline "usage: main.exe compare PARENT_DIR CHANGE_DIR";
      exit 2
  in
  let parent = load parent_dir and change = load change_dir in
  let keys = List.sort_uniq compare (List.map (fun r -> r.key) parent) in
  let regressed = ref false in
  List.iter
    (fun key ->
      let side runs = List.filter (fun r -> r.key = key) runs in
      let p = side parent and c = side change in
      let n = min (List.length p) (List.length c) in
      if n < min_pairs then begin
        Printf.eprintf "%s: %d pairs, need at least %d\n" key n min_pairs;
        exit 2
      end;
      let take l = List.filteri (fun i _ -> i < n) l in
      let p = take p and c = take c in
      Printf.printf "== %s: %d pairs\n%-32s %36s %36s %7s  %s\n" key n "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
      List.iter
        (fun (name, _) ->
          match Metrics.find name with
          | None -> ()
          | Some m ->
            let values runs =
              List.map (fun r -> Option.value ~default:nan (List.assoc_opt name r.metrics)) runs
            in
            let pv = values p and cv = values c in
            let wins, v = verdict m pv cv in
            if v = "REGRESSED" then regressed := true;
            let cell xs =
              let q1, q3 = Metrics.quartiles xs in
              Printf.sprintf "%.6g [%.6g, %.6g]" (Metrics.median xs) q1 q3
            in
            Printf.printf "%-32s %36s %36s %3d/%-3d  %s\n" name (cell pv) (cell cv)
              wins n v)
        (List.hd p).metrics)
    keys;
  if !regressed then exit 1
