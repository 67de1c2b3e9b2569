module Perf = Svagc_vmem.Perf

(* Heap slots are three parallel arrays (key, seq, payload) so sifting
   moves machine words, never tuples.  [state] is indexed by seq:
   '\000' pending, '\001' cancelled (lazy-deleted), '\002' fired. *)
type 'a t = {
  mutable key_ns : float array;
  mutable key_seq : int array;
  mutable payload : Obj.t array;
  mutable size : int;
  mutable state : Bytes.t;
  mutable next_seq : int;
  mutable live_count : int;
  perf : Perf.t option;
}

type handle = int

let dummy = Obj.repr 0

let create ?(capacity = 64) ?perf () =
  let capacity = max capacity 1 in
  {
    key_ns = Array.make capacity 0.0;
    key_seq = Array.make capacity 0;
    payload = Array.make capacity dummy;
    size = 0;
    state = Bytes.make (max capacity 64) '\000';
    next_seq = 0;
    live_count = 0;
    perf;
  }

let live t = t.live_count
let is_empty t = t.live_count = 0
let scheduled_total t = t.next_seq

(* (ns, seq) lexicographic order: FIFO among equal timestamps. *)
let less t i j =
  let ni = Array.unsafe_get t.key_ns i and nj = Array.unsafe_get t.key_ns j in
  ni < nj
  || (ni = nj && Array.unsafe_get t.key_seq i < Array.unsafe_get t.key_seq j)

let swap t i j =
  let ns = t.key_ns.(i) in
  t.key_ns.(i) <- t.key_ns.(j);
  t.key_ns.(j) <- ns;
  let seq = t.key_seq.(i) in
  t.key_seq.(i) <- t.key_seq.(j);
  t.key_seq.(j) <- seq;
  let p = t.payload.(i) in
  t.payload.(i) <- t.payload.(j);
  t.payload.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let smallest = if r < t.size && less t r l then r else l in
    if less t smallest i then begin
      swap t i smallest;
      sift_down t smallest
    end
  end

let grow_heap t =
  let cap = Array.length t.key_ns in
  let cap' = 2 * cap in
  let key_ns = Array.make cap' 0.0 in
  Array.blit t.key_ns 0 key_ns 0 t.size;
  t.key_ns <- key_ns;
  let key_seq = Array.make cap' 0 in
  Array.blit t.key_seq 0 key_seq 0 t.size;
  t.key_seq <- key_seq;
  let payload = Array.make cap' dummy in
  Array.blit t.payload 0 payload 0 t.size;
  t.payload <- payload

let ensure_state t seq =
  let len = Bytes.length t.state in
  if seq >= len then begin
    let state = Bytes.make (max (2 * len) (seq + 1)) '\000' in
    Bytes.blit t.state 0 state 0 len;
    t.state <- state
  end

let schedule t ~ns v =
  (* [not (ns >= 0.)] also catches NaN; host time must never get here. *)
  if not (ns >= 0.0 && ns < infinity) then
    invalid_arg "Calendar.schedule: key must be finite non-negative sim ns";
  if t.size = Array.length t.key_ns then grow_heap t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  ensure_state t seq;
  let i = t.size in
  t.size <- i + 1;
  t.key_ns.(i) <- ns;
  t.key_seq.(i) <- seq;
  t.payload.(i) <- Obj.repr v;
  sift_up t i;
  t.live_count <- t.live_count + 1;
  (match t.perf with
  | Some p -> Perf.bump p Sched_scheduled 1
  | None -> ());
  seq

let cancel t h =
  if h < 0 || h >= t.next_seq then false
  else if Bytes.get t.state h <> '\000' then false
  else begin
    Bytes.set t.state h '\001';
    t.live_count <- t.live_count - 1;
    (match t.perf with
    | Some p -> Perf.bump p Sched_cancelled 1
    | None -> ());
    true
  end

(* Remove the root slot; the caller has already read its fields. *)
let drop_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.key_ns.(0) <- t.key_ns.(last);
    t.key_seq.(0) <- t.key_seq.(last);
    t.payload.(0) <- t.payload.(last)
  end;
  t.payload.(last) <- dummy;
  if last > 1 then sift_down t 0

(* Lazy deletion: cancelled entries are discarded when they surface. *)
let rec skim_cancelled t =
  if t.size > 0 && Bytes.get t.state t.key_seq.(0) = '\001' then begin
    drop_root t;
    skim_cancelled t
  end

let pop t =
  skim_cancelled t;
  if t.size = 0 then None
  else begin
    let ns = t.key_ns.(0) and seq = t.key_seq.(0) in
    let v : Obj.t = t.payload.(0) in
    drop_root t;
    Bytes.set t.state seq '\002';
    t.live_count <- t.live_count - 1;
    (match t.perf with
    | Some p -> Perf.bump p Sched_dispatched 1
    | None -> ());
    Some (Obj.obj v, ns)
  end

let peek_ns t =
  skim_cancelled t;
  if t.size = 0 then None else Some t.key_ns.(0)

let clear t =
  let cancelled = ref 0 in
  for i = 0 to t.size - 1 do
    let seq = t.key_seq.(i) in
    if Bytes.get t.state seq = '\000' then begin
      Bytes.set t.state seq '\001';
      incr cancelled
    end;
    t.payload.(i) <- dummy
  done;
  t.size <- 0;
  t.live_count <- 0;
  match t.perf with
  | Some p -> Perf.bump p Sched_cancelled !cancelled
  | None -> ()
