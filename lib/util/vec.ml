(* The backing store is an [Obj.t array] rather than an ['a array] (the
   stdlib [Dynarray] technique): slots vacated by [pop] / [clear] /
   [release] must be overwritten so the host GC can reclaim the elements,
   and no typed witness exists for every ['a].  Routing elements through
   [Obj.repr] / [Obj.obj] provides a universal witness and guarantees the
   store is never a flat float array, so the witness write is always a
   plain pointer store. *)

type 'a t = {
  mutable data : Obj.t array;
  mutable len : int;
}

let dummy : Obj.t = Obj.repr ()

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Vec.create: negative capacity";
  { data = Array.make capacity dummy; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let grow v =
  let cap = Array.length v.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  let data = Array.make new_cap dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- Obj.repr x;
  v.len <- v.len + 1

let pop_last v : 'a =
  if v.len = 0 then invalid_arg "Vec.pop_last: empty vector";
  let n = v.len - 1 in
  let x = v.data.(n) in
  v.data.(n) <- dummy;
  v.len <- n;
  Obj.obj x

let pop v = if v.len = 0 then None else Some (pop_last v)

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i : 'a =
  check v i;
  Obj.obj v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- Obj.repr x

let release v i =
  check v i;
  v.data.(i) <- dummy

let clear v =
  Array.fill v.data 0 v.len dummy;
  v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f (Obj.obj v.data.(i) : 'a)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Obj.obj v.data.(i) : 'a)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Obj.obj v.data.(i) : 'a)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p (Obj.obj v.data.(i) : 'a) || loop (i + 1)) in
  loop 0

let for_all p v = not (exists (fun x -> not (p x)) v)

let find_opt p v =
  let rec loop i =
    if i >= v.len then None
    else
      let x : 'a = Obj.obj v.data.(i) in
      if p x then Some x else loop (i + 1)
  in
  loop 0

let to_list v =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) ((Obj.obj v.data.(i) : 'a) :: acc)
  in
  loop (v.len - 1) []

let to_array v = Array.init v.len (fun i : 'a -> Obj.obj v.data.(i))

let of_array a =
  let len = Array.length a in
  let data = Array.make len dummy in
  for i = 0 to len - 1 do
    data.(i) <- Obj.repr a.(i)
  done;
  { data; len }

let of_list l = of_array (Array.of_list l)

let map f v =
  let out = create ~capacity:v.len () in
  iter (fun x -> push out (f x)) v;
  out

let filter p v =
  let out = create () in
  iter (fun x -> if p x then push out x) v;
  out

let append dst src =
  let need = dst.len + src.len in
  if need > Array.length dst.data then begin
    let cap = Stdlib.max 8 (Array.length dst.data) in
    let rec fit c = if c >= need then c else fit (2 * c) in
    let data = Array.make (fit cap) dummy in
    Array.blit dst.data 0 data 0 dst.len;
    dst.data <- data
  end;
  Array.blit src.data 0 dst.data dst.len src.len;
  dst.len <- need

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  for i = 0 to v.len - 1 do
    v.data.(i) <- Obj.repr a.(i)
  done

let last v : 'a option =
  if v.len = 0 then None else Some (Obj.obj v.data.(v.len - 1))
