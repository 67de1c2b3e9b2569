type stats = {
  mutable accesses : int;
  mutable misses : int;
}

(* Way [w] of set [s] is slot [s * ways + w] of one int array holding the
   line's [tag + 1]; 0 is an empty way.  Each set's ways are in recency
   order, way 0 its most recently used line.  Nothing invalidates a line,
   so empty ways only ever sit at a set's tail, and a full set's last way
   is its LRU line.

   The array is built on the first access: only the Table III
   instrumentation touches the LLC, and every machine owns one. *)
type t = {
  mutable slots : int array;
  n_sets : int;
  set_bits : int; (* log2 n_sets *)
  ways : int;
  line : int;
  line_shift : int;
  st : stats;
}

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
    st = { accesses = 0; misses = 0 };
  }

(* Lines [first..last], in order.  Each access is one move-to-front pass:
   from way 0 the new key is carried down, every way taking the line
   above it, until the pass meets the key (a hit) or an empty way.  A
   pass that reaches the end drops the last way's line: the miss's LRU
   victim.  Masking the line number keeps [base .. stop - 1] inside the
   array, so the pass skips the bounds checks. *)
let access_lines t first last =
  if Array.length t.slots = 0 then t.slots <- Array.make (t.n_sets * t.ways) 0;
  let s = t.slots and set_mask = t.n_sets - 1 and ways = t.ways in
  let misses = ref 0 in
  for line_no = first to last do
    let base = (line_no land set_mask) * ways in
    let stop = base + ways in
    let key = (line_no lsr t.set_bits) + 1 in
    let i = ref base and v = ref key in
    while
      let w = Array.unsafe_get s !i in
      Array.unsafe_set s !i !v;
      v := w;
      incr i;
      w <> key && w <> 0 && !i < stop
    do
      ()
    done;
    if !v <> key then incr misses
  done;
  t.st.accesses <- t.st.accesses + (last - first + 1);
  t.st.misses <- t.st.misses + !misses

let check_addr addr = if addr < 0 then invalid_arg "Cache_sim.access: negative address"

let access t ~addr =
  check_addr addr;
  let line_no = addr lsr t.line_shift in
  access_lines t line_no line_no

let access_range t ~addr ~len =
  check_addr addr;
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
