(* The SplitMix64 state lives unboxed in an 8-byte buffer: updating a
   mutable [int64] field would box every new state, one allocation per
   draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits: OCaml ints are 63-bit signed, so a 63-bit payload would
     land on the sign bit and come out negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
