let slice ~len ~shards i =
  if shards <= 0 then invalid_arg "Reduce.slice: shards must be positive";
  if len < 0 then invalid_arg "Reduce.slice: negative length";
  if i < 0 || i >= shards then invalid_arg "Reduce.slice: shard out of range";
  let base = len / shards and rem = len mod shards in
  let lo = (i * base) + min i rem in
  let hi = lo + base + (if i < rem then 1 else 0) in
  (lo, hi)

let fold_shards parts ~init ~f = Array.fold_left f init parts

let concat parts =
  match Array.length parts with
  | 0 -> [||]
  | _ ->
    let total = Array.fold_left (fun acc p -> acc + Array.length p) 0 parts in
    if total = 0 then [||]
    else begin
      let first =
        (* Seed element for Array.make: the first non-empty segment. *)
        let rec find i =
          if Array.length parts.(i) > 0 then parts.(i).(0) else find (i + 1)
        in
        find 0
      in
      let out = Array.make total first in
      let pos = ref 0 in
      Array.iter
        (fun p ->
          Array.blit p 0 out !pos (Array.length p);
          pos := !pos + Array.length p)
        parts;
      out
    end

let sum_ints parts = fold_shards parts ~init:0 ~f:( + )

let sum_floats parts = fold_shards parts ~init:0.0 ~f:( +. )

let merge_perfs ~into parts =
  Array.iter (fun delta -> Svagc_vmem.Perf.add ~into delta) parts
