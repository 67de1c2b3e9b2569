type stats = {
  mutable accesses : int;
  mutable misses : int;
}

(* Way [w] of set [s] is slot [s * ways + w] of one int array holding
   [(stamp lsl tag_bits) lor (tag + 1)]; 0 is an empty way.  Stamps are
   ticks of one access counter, so they are unique and a set's smallest
   packed value is its first empty way or, if it has none, its LRU way.
   A fill only follows a miss, so a tag is resident at most once per set.

   The array is built on the first access: only the Table III
   instrumentation touches the LLC, and every machine owns one. *)
type t = {
  mutable slots : int array;
  n_sets : int;
  set_bits : int; (* log2 n_sets *)
  ways : int;
  line : int;
  line_shift : int;
  mutable tick : int;
  st : stats;
}

let tag_bits = 31
let tag_mask = (1 lsl tag_bits) - 1

(* The largest stamp: [(stamp lsl tag_bits) lor tag_mask] stays a
   positive 63-bit int. *)
let max_stamp = (1 lsl 31) - 1

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(size_bytes = 8 * 1024 * 1024) ?(line_bytes = 64) ?(ways = 16) () =
  if size_bytes <= 0 || line_bytes <= 0 || ways <= 0 then
    invalid_arg "Cache_sim.create: sizes must be positive";
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache_sim.create: line_bytes must be a power of two";
  let lines = size_bytes / line_bytes in
  if size_bytes mod line_bytes <> 0 || lines mod ways <> 0 then
    invalid_arg "Cache_sim.create: geometry mismatch";
  let n_sets = lines / ways in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Cache_sim.create: the set count must be a power of two";
  {
    slots = [||];
    n_sets;
    set_bits = log2 n_sets;
    ways;
    line = line_bytes;
    line_shift = log2 line_bytes;
    tick = 0;
    st = { accesses = 0; misses = 0 };
  }

(* The stamp field is full: give every valid way its rank among its set's
   valid ways (1 = least recent) and restart the clock above every rank.
   Each set keeps its LRU order, so no later victim changes. *)
let renumber t =
  let s = t.slots in
  let ranks = Array.make t.ways 0 in
  for set = 0 to t.n_sets - 1 do
    let base = set * t.ways in
    for w = 0 to t.ways - 1 do
      let v = s.(base + w) in
      let rank = ref 0 in
      if v <> 0 then
        for u = base to base + t.ways - 1 do
          let x = s.(u) in
          if x <> 0 && x lsr tag_bits <= v lsr tag_bits then incr rank
        done;
      ranks.(w) <- !rank
    done;
    for w = 0 to t.ways - 1 do
      let v = s.(base + w) in
      if v <> 0 then s.(base + w) <- (ranks.(w) lsl tag_bits) lor (v land tag_mask)
    done
  done;
  t.tick <- t.ways

(* Lines [first..last], in order. *)
let access_lines t first last =
  if Array.length t.slots = 0 then t.slots <- Array.make (t.n_sets * t.ways) 0;
  let s = t.slots in
  for line_no = first to last do
    if t.tick = max_stamp then renumber t;
    let tick = t.tick + 1 in
    t.tick <- tick;
    t.st.accesses <- t.st.accesses + 1;
    let key = (line_no lsr t.set_bits) + 1 in
    if key > tag_mask then invalid_arg "Cache_sim.access: address beyond the tag field";
    let base = (line_no land (t.n_sets - 1)) * t.ways in
    let stop = base + t.ways in
    let i = ref base and victim = ref base and least = ref max_int in
    while !i < stop do
      let v = s.(!i) in
      if v land tag_mask = key then begin
        victim := !i;
        least := -1;
        i := stop
      end
      else begin
        (* [least := min !least v] and its way, without a branch the host
           would mispredict: [m] is all ones when [v < !least], else 0. *)
        let d = v - !least in
        let m = d asr 62 in
        least := !least + (d land m);
        victim := !victim + ((!i - !victim) land m);
        incr i
      end
    done;
    if !least >= 0 then t.st.misses <- t.st.misses + 1;
    s.(!victim) <- (tick lsl tag_bits) lor key
  done

let access t ~addr =
  let line_no = addr lsr t.line_shift in
  access_lines t line_no line_no

let access_range t ~addr ~len =
  if len > 0 then
    access_lines t (addr lsr t.line_shift) ((addr + len - 1) lsr t.line_shift)

let stats t = t.st

let miss_rate t =
  if t.st.accesses = 0 then 0.0
  else float_of_int t.st.misses /. float_of_int t.st.accesses *. 100.0

let reset_stats t =
  t.st.accesses <- 0;
  t.st.misses <- 0

let line_bytes t = t.line

let skip_ticks t n =
  if n < 0 || t.tick + n > max_stamp then invalid_arg "Cache_sim.skip_ticks";
  t.tick <- t.tick + n
