type stats = {
  mutable accesses : int;
  mutable misses : int;
}

(* The set arrays are built on the first access: only the Table III
   instrumentation touches the LLC, and every machine owns one. *)
type t = {
  mutable tags : int array array; (* -1 = invalid *)
  mutable stamps : int array array;
  n_sets : int;
  ways : int;
  line : int;
  line_shift : int;
  mutable tick : int;
  st : stats;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(size_bytes = 8 * 1024 * 1024) ?(line_bytes = 64) ?(ways = 16) () =
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 then invalid_arg "Cache_sim.create: geometry mismatch";
  let n_sets = lines / ways in
  {
    tags = [||];
    stamps = [||];
    n_sets;
    ways;
    line = line_bytes;
    line_shift = log2 line_bytes;
    tick = 0;
    st = { accesses = 0; misses = 0 };
  }

let build_sets t =
  t.tags <- Array.init t.n_sets (fun _ -> Array.make t.ways (-1));
  t.stamps <- Array.init t.n_sets (fun _ -> Array.make t.ways 0)

let access t ~addr =
  if Array.length t.tags = 0 then build_sets t;
  t.tick <- t.tick + 1;
  t.st.accesses <- t.st.accesses + 1;
  let line_no = addr lsr t.line_shift in
  let set = line_no mod t.n_sets in
  let tag = line_no / t.n_sets in
  let tags = t.tags.(set) and stamps = t.stamps.(set) in
  let ways = Array.length tags in
  let hit = ref false in
  for w = 0 to ways - 1 do
    if tags.(w) = tag then begin
      hit := true;
      stamps.(w) <- t.tick
    end
  done;
  if not !hit then begin
    t.st.misses <- t.st.misses + 1;
    (* Fill, evicting LRU (or the first invalid way). *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if tags.(w) = -1 && tags.(!victim) <> -1 then victim := w
      else if tags.(!victim) <> -1 && stamps.(w) < stamps.(!victim) then victim := w
    done;
    tags.(!victim) <- tag;
    stamps.(!victim) <- t.tick
  end

let access_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr t.line_shift in
    let last = (addr + len - 1) lsr t.line_shift in
    for line = first to last do
      access t ~addr:(line lsl t.line_shift)
    done
  end

let stats t = t.st

let miss_rate t =
  if t.st.accesses = 0 then 0.0
  else float_of_int t.st.misses /. float_of_int t.st.accesses *. 100.0

let reset_stats t =
  t.st.accesses <- 0;
  t.st.misses <- 0

let line_bytes t = t.line
