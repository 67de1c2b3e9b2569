type t =
  | Fixed of int
  | Uniform of int * int
  | Lognormal of { mu : float; sigma : float; min : int; max : int }
  | Choice of (float * int) array

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let lognormal_mean ~mean ~sigma ~min ~max =
  if mean <= 0.0 then invalid_arg "Dist.lognormal_mean: mean must be positive";
  Lognormal { mu = log mean -. (sigma *. sigma /. 2.0); sigma; min; max }

(* Box-Muller; one draw per call is enough for our rates. *)
let[@inline] gaussian rng =
  let u1 = max 1e-12 (Rng.float rng) in
  let u2 = Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let sample rng = function
  | Fixed v -> v
  | Uniform (lo, hi) -> Rng.int_in rng ~lo ~hi
  | Lognormal { mu; sigma; min; max } ->
    let v = exp (mu +. (sigma *. gaussian rng)) in
    clamp ~lo:min ~hi:max (int_of_float v)
  | Choice weighted ->
    (* Local float refs stay unboxed: the same left-to-right sums as a
       fold, without a boxed accumulator per weight. *)
    let last = Array.length weighted - 1 in
    let total = ref 0.0 in
    for i = 0 to last do
      total := !total +. fst weighted.(i)
    done;
    let x = Rng.float rng *. !total in
    let acc = ref 0.0 and i = ref 0 in
    while !i < last && not (x < !acc +. fst weighted.(!i)) do
      acc := !acc +. fst weighted.(!i);
      incr i
    done;
    snd weighted.(!i)

let mean = function
  | Fixed v -> float_of_int v
  | Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.0
  | Lognormal { mu; sigma; min; max } ->
    let m = exp (mu +. (sigma *. sigma /. 2.0)) in
    Float.min (float_of_int max) (Float.max (float_of_int min) m)
  | Choice weighted ->
    let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    Array.fold_left (fun acc (w, v) -> acc +. (w *. float_of_int v)) 0.0 weighted
    /. total

let zipf rng ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  (* Inverse-CDF over the harmonic weights would need O(n) setup per call;
     rejection sampling (Devroye) stays O(1) amortized.  The method
     degenerates at s = 1 exactly, so nudge the exponent off the pole. *)
  let s = if Float.abs (s -. 1.0) < 1e-6 then 1.000001 else s in
  let rec draw budget =
    let u = Rng.float rng in
    let v = Rng.float rng in
    let x = floor (float_of_int n ** u) in
    let t = ((x +. 1.0) ** (1.0 -. s)) -. (x ** (1.0 -. s)) in
    let bound = (2.0 ** (1.0 -. s)) -. 1.0 in
    if budget = 0 || v *. x *. t /. bound <= 1.0 then int_of_float x
    else draw (budget - 1)
  in
  (* Devroye draws ranks in [1, n]; shift to [0, n). *)
  let r = draw 64 - 1 in
  if r >= n then n - 1 else if r < 0 then 0 else r

let pp ppf = function
  | Fixed v -> Format.fprintf ppf "fixed(%d)" v
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform[%d,%d]" lo hi
  | Lognormal { mu; sigma; min; max } ->
    Format.fprintf ppf "lognormal(mu=%.2f,sigma=%.2f)[%d,%d]" mu sigma min max
  | Choice weighted ->
    Format.fprintf ppf "choice(%d cases)" (Array.length weighted)
