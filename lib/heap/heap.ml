open Svagc_vmem
module Process = Svagc_kernel.Process
module Vec = Svagc_util.Vec

(* Roots keyed by object id.  [hash] is the generic table's own bucket
   function (Hashtbl.hash, seed 0) and the functor shares its code, so the
   visiting order is the one heap.mli documents. *)
module Roots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  proc : Process.t;
  base : int;
  limit : int;
  mutable top : int;
  mutable mapped_until : int;
  threshold_pages : int;
  objects : Obj_model.t Vec.t;
  roots : Obj_model.t Roots.t;
  mutable waste : int;
}

exception Heap_full

let default_base = 4 * 1024 * 1024 * 1024

let create proc ?(base = default_base) ?(threshold_pages = 10) ~size_bytes () =
  if not (Addr.is_page_aligned base) then invalid_arg "Heap.create: unaligned base";
  if size_bytes <= 0 then invalid_arg "Heap.create: empty heap";
  if threshold_pages <= 0 then invalid_arg "Heap.create: threshold must be positive";
  {
    proc;
    base;
    limit = base + Addr.align_up size_bytes;
    top = base;
    mapped_until = base;
    threshold_pages;
    objects = Vec.create ();
    roots = Roots.create 64;
    waste = 0;
  }

let proc t = t.proc
let base t = t.base
let limit t = t.limit
let top t = t.top
let threshold_pages t = t.threshold_pages

let ensure_mapped_to t addr =
  let target = Addr.align_up addr in
  if target > t.limit then invalid_arg "Heap.ensure_mapped_to: beyond heap limit";
  if target > t.mapped_until then begin
    let pages = (target - t.mapped_until) / Addr.page_size in
    Address_space.map_range (Process.aspace t.proc) ~va:t.mapped_until ~pages;
    t.mapped_until <- target
  end

let perf t = (Process.machine t.proc).Machine.perf

let account_waste t bytes =
  if bytes > 0 then begin
    t.waste <- t.waste + bytes;
    Perf.bump (perf t) Alloc_waste_bytes bytes
  end

let stamp_header t obj =
  let aspace = Process.aspace t.proc in
  ensure_mapped_to t (obj.Obj_model.addr + Obj_model.header_bytes);
  Address_space.write_i64 aspace ~va:obj.Obj_model.addr
    (Int64.of_int obj.Obj_model.id);
  Address_space.write_i64 aspace ~va:(obj.Obj_model.addr + 8)
    (Int64.of_int obj.Obj_model.size)

let header_matches t obj =
  let aspace = Process.aspace t.proc in
  (* Peek, don't read: verifying a header must not demand-fault a swapped
     page in (the audit under memory pressure stays passive). *)
  let id = Address_space.peek_i64 aspace ~va:obj.Obj_model.addr in
  let size = Address_space.peek_i64 aspace ~va:(obj.Obj_model.addr + 8) in
  Int64.to_int id = obj.Obj_model.id && Int64.to_int size = obj.Obj_model.size

let register t obj =
  Vec.push t.objects obj;
  Perf.bump (perf t) Alloc_bytes obj.Obj_model.size;
  stamp_header t obj

let swap_sized t ~size = size >= t.threshold_pages * Addr.page_size

(* IfSwapAlign from Algorithm 3. *)
let if_swap_align t ~size addr =
  if swap_sized t ~size then Addr.align_up addr else addr

let place t ~top live =
  Array.fold_left
    (fun top o ->
      let size = o.Obj_model.size in
      let addr = if_swap_align t ~size top in
      o.Obj_model.forward <- addr;
      if_swap_align t ~size (addr + size))
    top live

let make_object t ~addr ~size ~n_refs ~cls =
  let obj =
    Obj_model.make ~id:(Process.fresh_object_id t.proc) ~addr ~size ~cls ~n_refs
  in
  register t obj;
  obj

let alloc t ~size ~n_refs ~cls =
  if size < Obj_model.header_bytes then invalid_arg "Heap.alloc: size below header";
  let addr = if_swap_align t ~size t.top in
  if addr + size > t.limit then raise Heap_full;
  let new_top = if_swap_align t ~size (addr + size) in
  account_waste t (new_top - t.top - size);
  t.top <- new_top;
  ensure_mapped_to t new_top;
  make_object t ~addr ~size ~n_refs ~cls

let alloc_chunk t ~bytes =
  if bytes <= 0 then invalid_arg "Heap.alloc_chunk: empty chunk";
  let start = Addr.align_up t.top in
  if start + bytes > t.limit then raise Heap_full;
  account_waste t (start - t.top);
  t.top <- start + bytes;
  ensure_mapped_to t (Addr.align_up t.top);
  start

let alloc_at t ~addr ~size ~n_refs ~cls =
  if addr < t.base || addr + size > t.limit then
    invalid_arg "Heap.alloc_at: outside the heap";
  ensure_mapped_to t (addr + size);
  make_object t ~addr ~size ~n_refs ~cls

let objects t = t.objects

(* One pass: each record is touched once. *)
let adopt_survivors t survivors ~top =
  Array.iter
    (fun o ->
      o.Obj_model.addr <- o.Obj_model.forward;
      o.Obj_model.forward <- 0;
      o.Obj_model.marked <- false;
      Vec.push t.objects o)
    survivors;
  t.top <- top

let commit_survivors t survivors ~top =
  Vec.clear t.objects;
  adopt_survivors t survivors ~top

let reset t =
  Vec.clear t.objects;
  Roots.reset t.roots;
  t.top <- t.base

let add_root t obj = Roots.replace t.roots obj.Obj_model.id obj

let remove_root t obj = Roots.remove t.roots obj.Obj_model.id

let iter_roots t f = Roots.iter (fun _ obj -> f obj) t.roots

let root_count t = Roots.length t.roots

let set_ref _t obj ~slot target =
  obj.Obj_model.refs.(slot) <- Option.value target ~default:Obj_model.null

let deref t obj ~slot =
  let target = obj.Obj_model.refs.(slot) in
  if target == Obj_model.null then None
  else if Obj_model.dropped target then
    invalid_arg
      (Format.asprintf "Heap.deref: reference to dropped %a (GC bug)" Obj_model.pp
         target)
  else if target.Obj_model.addr < t.base || target.Obj_model.addr >= t.top then
    invalid_arg
      (Format.asprintf "Heap.deref: reference to %a outside the heap" Obj_model.pp
         target)
  else Some target

let payload_va obj ~off = obj.Obj_model.addr + Obj_model.header_bytes + off

let check_payload_range obj ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Heap: negative payload range";
  if Obj_model.header_bytes + off + len > obj.Obj_model.size then
    invalid_arg "Heap: payload range escapes the object"

let write_payload t obj ~off data =
  check_payload_range obj ~off ~len:(Bytes.length data);
  Address_space.write_bytes (Process.aspace t.proc) ~va:(payload_va obj ~off)
    ~src:data

let fill_payload t obj ~off ~len c =
  check_payload_range obj ~off ~len;
  Address_space.fill (Process.aspace t.proc) ~va:(payload_va obj ~off) ~len c

let read_payload t obj ~off ~len =
  check_payload_range obj ~off ~len;
  Address_space.read_bytes (Process.aspace t.proc) ~va:(payload_va obj ~off) ~len

let checksum_object t obj =
  Address_space.checksum (Process.aspace t.proc) ~va:obj.Obj_model.addr
    ~len:obj.Obj_model.size

let touch_object t obj ~core ~max_bytes =
  let len = min max_bytes obj.Obj_model.size in
  Address_space.touch_range (Process.aspace t.proc) ~core ~va:obj.Obj_model.addr
    ~len

let used_bytes t = t.top - t.base

let live_bytes t = Vec.fold_left (fun acc o -> acc + o.Obj_model.size) 0 t.objects

let wasted_bytes t = t.waste

let object_count t = Vec.length t.objects

let audit t =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let aspace = Process.aspace t.proc in
  Vec.iter
    (fun o ->
      let addr = o.Obj_model.addr and size = o.Obj_model.size in
      let id = o.Obj_model.id in
      if addr < t.base || addr + size > t.limit then
        bad "object %d: [0x%x, 0x%x) escapes the heap [0x%x, 0x%x)" id addr
          (addr + size) t.base t.limit
      else begin
        (* Every page the object touches must still be mapped (present or
           swapped out — under memory pressure a live object's pages may
           legitimately live on the swap device): a botched swap/fallback
           would leave a genuine hole here. *)
        let first = Addr.align_down addr in
        let last = addr + size - 1 in
        let va = ref first in
        let hole = ref None in
        while !hole = None && !va <= last do
          if not (Address_space.is_mapped aspace ~va:!va) then hole := Some !va;
          va := !va + Addr.page_size
        done;
        match !hole with
        | Some va -> bad "object %d: page 0x%x is unmapped" id va
        | None ->
          if not (header_matches t o) then
            bad "object %d at 0x%x: header does not match (id/size stamp)" id addr
      end)
    t.objects;
  (* Live objects must not overlap each other. *)
  let sorted =
    List.sort
      (fun a b -> compare a.Obj_model.addr b.Obj_model.addr)
      (Vec.to_list t.objects)
  in
  (let rec scan = function
     | a :: (b :: _ as rest) ->
       if a.Obj_model.addr + a.Obj_model.size > b.Obj_model.addr then
         bad "objects %d and %d overlap (0x%x+%d > 0x%x)" a.Obj_model.id
           b.Obj_model.id a.Obj_model.addr a.Obj_model.size b.Obj_model.addr;
       scan rest
     | _ -> ()
   in
   scan sorted);
  match List.rev !problems with [] -> Ok () | ps -> Error ps
