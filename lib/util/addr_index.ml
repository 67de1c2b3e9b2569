type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int;  (* 63 - log2 capacity: the hash keeps the top bits *)
  mutable count : int;
  filler : 'a;
}

let empty = -1

(* 2^63 / phi, rounded to odd: Fibonacci hashing spreads page-aligned
   addresses, whose low bits are all zero, over the top bits. *)
let golden = 0x4F1BBCDCBFA53E0B

let initial_bits = 4

let slot shift key = (key * golden) lsr shift

let home ~capacity key =
  let rec bits b = if 1 lsl b >= capacity then b else bits (b + 1) in
  slot (63 - bits 0) key

let create filler =
  let cap = 1 lsl initial_bits in
  {
    keys = Array.make cap empty;
    vals = Array.make cap filler;
    shift = 63 - initial_bits;
    count = 0;
    filler;
  }

let length t = t.count

let capacity t = Array.length t.keys

(* The slot holding [key], or the empty slot that ends its probe chain.
   The load never exceeds one half, so an empty slot always exists. *)
let probe t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (slot t.shift key) in
  while
    let k = keys.(!i) in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap t.filler;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty then begin
      let j = probe t k in
      t.keys.(j) <- k;
      t.vals.(j) <- vals.(i)
    end
  done

let replace t key v =
  if key < 0 then invalid_arg "Addr_index.replace: negative address";
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) <- v
  else begin
    let i =
      if 2 * (t.count + 1) > Array.length t.keys then begin
        grow t;
        probe t key
      end
      else i
    in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end

let find_or_filler t key =
  let i = probe t key in
  if key = empty || t.keys.(i) <> key then t.filler else t.vals.(i)

let find t key =
  let i = probe t key in
  if key = empty || t.keys.(i) <> key then raise Not_found else t.vals.(i)

let find_opt t key = match find t key with v -> Some v | exception Not_found -> None

(* Backward-shift deletion: walk the chain after the hole and pull back
   every entry whose home slot does not lie cyclically between the hole
   and its current slot, so every remaining key stays reachable from its
   home without tombstones. *)
let remove t key =
  let i = probe t key in
  if key <> empty && t.keys.(i) = key then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let hole = ref i in
    let j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let k = keys.(!j) in
      if (!j - slot t.shift k) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- k;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    vals.(!hole) <- t.filler;
    t.count <- t.count - 1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  Array.fill t.vals 0 (Array.length t.vals) t.filler;
  t.count <- 0
