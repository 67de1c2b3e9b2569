type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes_full : int;
  mutable flushes_asid : int;
  mutable flushes_page : int;
}

(* Way [w] of set [s] is slot [s * ways + w] of four parallel arrays.
   [asids.(i) = invalid] marks an empty slot; the other three keep
   whatever they last held.  [live] counts the valid slots, so a flush of
   an empty TLB — every per-core flush outside Table III — is a counter
   bump. *)
type t = {
  asids : int array;
  vpns : int array;
  frames : int array;
  stamps : int array;
  n_sets : int;
  ways : int;
  mutable live : int;
  mutable tick : int;
  st : stats;
}

let invalid = -1

let create ?(entries = 64) ?(ways = 4) () =
  if entries <= 0 || ways <= 0 then
    invalid_arg "Tlb.create: entries and ways must be positive";
  if entries mod ways <> 0 then invalid_arg "Tlb.create: entries must divide by ways";
  {
    asids = Array.make entries invalid;
    vpns = Array.make entries 0;
    frames = Array.make entries 0;
    stamps = Array.make entries 0;
    n_sets = entries / ways;
    ways;
    live = 0;
    tick = 0;
    st = { hits = 0; misses = 0; flushes_full = 0; flushes_asid = 0; flushes_page = 0 };
  }

(* A negative asid would match the empty slots' mark. *)
let check_asid fn asid = if asid < 0 then invalid_arg (fn ^ ": negative asid")

(* The slot holding [(asid, vpn)], or -1.  [insert] only ever places a
   pair in the set of its vpn and rewrites a resident pair in place, so
   that set is the only place to look and at most one way matches. *)
let find t ~asid ~vpn =
  let base = (vpn mod t.n_sets) * t.ways in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && not (t.asids.(!i) = asid && t.vpns.(!i) = vpn) do
    incr i
  done;
  if !i < stop then !i else -1

let lookup t ~asid ~vpn =
  check_asid "Tlb.lookup" asid;
  t.tick <- t.tick + 1;
  let i = find t ~asid ~vpn in
  if i < 0 then begin
    t.st.misses <- t.st.misses + 1;
    -1
  end
  else begin
    t.stamps.(i) <- t.tick;
    t.st.hits <- t.st.hits + 1;
    t.frames.(i)
  end

(* [times] further lookups of a resident entry in one call: the same tick
   advance, hit count and final stamp, with no frame to return. *)
let rehit t ~asid ~vpn ~times =
  check_asid "Tlb.rehit" asid;
  t.tick <- t.tick + times;
  let i = find t ~asid ~vpn in
  if i < 0 then invalid_arg "Tlb.rehit: entry not resident";
  t.stamps.(i) <- t.tick;
  t.st.hits <- t.st.hits + times

(* The set's first empty way, or else its least recently used one (the
   first of equal stamps). *)
let victim t ~vpn =
  let base = (vpn mod t.n_sets) * t.ways in
  let v = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if t.asids.(!v) <> invalid
       && (t.asids.(i) = invalid || t.stamps.(i) < t.stamps.(!v))
    then v := i
  done;
  !v

let insert t ~asid ~vpn ~frame =
  check_asid "Tlb.insert" asid;
  t.tick <- t.tick + 1;
  let i = match find t ~asid ~vpn with -1 -> victim t ~vpn | i -> i in
  if t.asids.(i) = invalid then t.live <- t.live + 1;
  t.asids.(i) <- asid;
  t.vpns.(i) <- vpn;
  t.frames.(i) <- frame;
  t.stamps.(i) <- t.tick

let iter_valid t f =
  if t.live > 0 then
    for i = 0 to Array.length t.asids - 1 do
      let asid = t.asids.(i) in
      if asid <> invalid then
        f ~asid ~vpn:t.vpns.(i) ~frame:t.frames.(i) ~stamp:t.stamps.(i)
    done

let flush_all t =
  t.st.flushes_full <- t.st.flushes_full + 1;
  if t.live > 0 then begin
    Array.fill t.asids 0 (Array.length t.asids) invalid;
    t.live <- 0
  end

let flush_asid t ~asid =
  check_asid "Tlb.flush_asid" asid;
  t.st.flushes_asid <- t.st.flushes_asid + 1;
  if t.live > 0 then
    for i = 0 to Array.length t.asids - 1 do
      if t.asids.(i) = asid then begin
        t.asids.(i) <- invalid;
        t.live <- t.live - 1
      end
    done

let flush_page t ~asid ~vpn =
  check_asid "Tlb.flush_page" asid;
  t.st.flushes_page <- t.st.flushes_page + 1;
  if t.live > 0 then begin
    let i = find t ~asid ~vpn in
    if i >= 0 then begin
      t.asids.(i) <- invalid;
      t.live <- t.live - 1
    end
  end

let stats t = t.st

let reset_stats t =
  t.st.hits <- 0;
  t.st.misses <- 0;
  t.st.flushes_full <- 0;
  t.st.flushes_asid <- 0;
  t.st.flushes_page <- 0

let entries t = Array.length t.asids

let occupied t = t.live
