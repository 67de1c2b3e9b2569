type t = {
  samples : float Vec.t;
  mutable sorted : bool;
}

let create ?capacity () = { samples = Vec.create ?capacity (); sorted = true }

let add t x =
  Vec.push t.samples x;
  t.sorted <- false

let count t = Vec.length t.samples

let total t = Vec.fold_left ( +. ) 0.0 t.samples

let mean t =
  let n = count t in
  if n = 0 then 0.0 else total t /. float_of_int n

let max t = Vec.fold_left Float.max 0.0 t.samples

let min t =
  if count t = 0 then 0.0
  else Vec.fold_left Float.min Float.max_float t.samples

let ensure_sorted t =
  if not t.sorted then begin
    Vec.sort Float.compare t.samples;
    t.sorted <- true
  end

(* Nearest-rank: sample number ceil(q*n), 1-indexed.  The product q*n is
   computed in floats, so a mathematically-integer rank can land a hair
   above its true value (0.999 * 1000 = 999.0000000000001) and ceil would
   then select the next sample.  Subtracting a relative epsilon first
   restores the exact-boundary answer; ranks that are genuinely fractional
   are unaffected (their distance to the next integer is far above eps). *)
let quantile t q =
  let n = count t in
  if n = 0 then 0.0
  else begin
    ensure_sorted t;
    let x = q *. float_of_int n in
    let eps = 1e-9 *. Float.max 1.0 (Float.abs x) in
    let rank = int_of_float (ceil (x -. eps)) - 1 in
    let rank = Stdlib.max 0 (Stdlib.min (n - 1) rank) in
    Vec.get t.samples rank
  end

let percentile t p = quantile t (p /. 100.0)

let p50 t = quantile t 0.5

let p99 t = quantile t 0.99

let p999 t = quantile t 0.999

let merge_into ~into b =
  if Vec.length b.samples > 0 then begin
    Vec.append into.samples b.samples;
    into.sorted <- false
  end

let merge a b =
  let t = create ~capacity:(count a + count b) () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t
