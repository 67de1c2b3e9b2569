type entry = {
  mutable valid : bool;
  mutable asid : int;
  mutable vpn : int;
  mutable frame : int;
  mutable stamp : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes_full : int;
  mutable flushes_asid : int;
  mutable flushes_page : int;
}

type t = {
  sets : entry array array;
  n_sets : int;
  mutable tick : int;
  st : stats;
}

let create ?(entries = 64) ?(ways = 4) () =
  if entries mod ways <> 0 then invalid_arg "Tlb.create: entries must divide by ways";
  let n_sets = entries / ways in
  let fresh () = { valid = false; asid = 0; vpn = 0; frame = 0; stamp = 0 } in
  {
    sets = Array.init n_sets (fun _ -> Array.init ways (fun _ -> fresh ()));
    n_sets;
    tick = 0;
    st = { hits = 0; misses = 0; flushes_full = 0; flushes_asid = 0; flushes_page = 0 };
  }

let set_of t vpn = t.sets.(vpn mod t.n_sets)

(* Every matching way is stamped and the last one's frame wins; [insert]
   only follows a miss, so at most one way matches in practice. *)
let lookup t ~asid ~vpn =
  t.tick <- t.tick + 1;
  let set = set_of t vpn in
  let frame = ref (-1) in
  for i = 0 to Array.length set - 1 do
    let e = set.(i) in
    if e.valid && e.asid = asid && e.vpn = vpn then begin
      e.stamp <- t.tick;
      frame := e.frame
    end
  done;
  if !frame < 0 then t.st.misses <- t.st.misses + 1
  else t.st.hits <- t.st.hits + 1;
  !frame

(* [times] further lookups of a resident entry in one call: the same tick
   advance, hit count and final stamp, with no frame to return. *)
let rehit t ~asid ~vpn ~times =
  t.tick <- t.tick + times;
  let set = set_of t vpn in
  let found = ref false in
  for i = 0 to Array.length set - 1 do
    let e = set.(i) in
    if e.valid && e.asid = asid && e.vpn = vpn then begin
      e.stamp <- t.tick;
      found := true
    end
  done;
  if not !found then invalid_arg "Tlb.rehit: entry not resident";
  t.st.hits <- t.st.hits + times

let insert t ~asid ~vpn ~frame =
  t.tick <- t.tick + 1;
  let set = set_of t vpn in
  let victim = ref set.(0) in
  Array.iter
    (fun e ->
      (* Prefer an invalid way; otherwise evict the least recently used. *)
      if not e.valid then begin
        if !victim.valid then victim := e
      end
      else if !victim.valid && e.stamp < !victim.stamp then victim := e)
    set;
  let e = !victim in
  e.valid <- true;
  e.asid <- asid;
  e.vpn <- vpn;
  e.frame <- frame;
  e.stamp <- t.tick

let iter_entries t f = Array.iter (fun set -> Array.iter f set) t.sets

let iter_valid t f =
  iter_entries t (fun e ->
      if e.valid then f ~asid:e.asid ~vpn:e.vpn ~frame:e.frame ~stamp:e.stamp)

let flush_all t =
  t.st.flushes_full <- t.st.flushes_full + 1;
  iter_entries t (fun e -> e.valid <- false)

let flush_asid t ~asid =
  t.st.flushes_asid <- t.st.flushes_asid + 1;
  iter_entries t (fun e -> if e.asid = asid then e.valid <- false)

(* [insert] only ever places [(asid, vpn)] in [set_of t vpn], so the other
   sets cannot hold it: scanning that one set is the whole flush. *)
let flush_page t ~asid ~vpn =
  t.st.flushes_page <- t.st.flushes_page + 1;
  let set = set_of t vpn in
  for i = 0 to Array.length set - 1 do
    let e = set.(i) in
    if e.asid = asid && e.vpn = vpn then e.valid <- false
  done

let stats t = t.st

let reset_stats t =
  t.st.hits <- 0;
  t.st.misses <- 0;
  t.st.flushes_full <- 0;
  t.st.flushes_asid <- 0;
  t.st.flushes_page <- 0

let entries t = t.n_sets * Array.length t.sets.(0)

let occupied t =
  let n = ref 0 in
  iter_entries t (fun e -> if e.valid then incr n);
  !n
