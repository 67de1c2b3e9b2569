open Svagc_vmem
module Process = Svagc_kernel.Process

type hole = {
  addr : int;
  pages : int;
}

type t = {
  proc : Process.t;
  base : int;
  size_bytes : int;
  mutable holes : hole list;  (* sorted by address, coalesced *)
  by_addr : (int, Obj_model.t) Hashtbl.t;
  mutable mapped : bool;
}

exception Los_full

let default_base = 16 * 1024 * 1024 * 1024

let create proc ?(base = default_base) ~size_bytes () =
  if not (Addr.is_page_aligned base) then invalid_arg "Los.create: unaligned base";
  let size_bytes = Addr.align_up size_bytes in
  if size_bytes <= 0 then invalid_arg "Los.create: empty region";
  {
    proc;
    base;
    size_bytes;
    holes = [ { addr = base; pages = size_bytes / Addr.page_size } ];
    by_addr = Hashtbl.create 64;
    mapped = false;
  }

let ensure_mapped t =
  if not t.mapped then begin
    Address_space.map_range (Process.aspace t.proc) ~va:t.base
      ~pages:(t.size_bytes / Addr.page_size);
    t.mapped <- true
  end

let capacity_bytes t = t.size_bytes

let free_bytes t =
  List.fold_left (fun acc h -> acc + (h.pages * Addr.page_size)) 0 t.holes

let largest_hole_bytes t =
  List.fold_left (fun acc h -> max acc (h.pages * Addr.page_size)) 0 t.holes

let hole_count t = List.length t.holes

let external_fragmentation t =
  let free = free_bytes t in
  if free = 0 then 0.0
  else 1.0 -. (float_of_int (largest_hole_bytes t) /. float_of_int free)

let can_fit t ~size =
  let pages = Addr.pages_spanned size in
  List.exists (fun h -> h.pages >= pages) t.holes

let maintenance_cost_ns t =
  let cost = (Process.machine t.proc).Machine.cost in
  float_of_int (hole_count t) *. 2.0 *. cost.Cost_model.pt_entry_ns

let alloc t ~size ~n_refs ~cls =
  if size < Obj_model.header_bytes then invalid_arg "Los.alloc: size below header";
  ensure_mapped t;
  let pages = Addr.pages_spanned size in
  (* First fit over the address-ordered free list. *)
  let rec take acc = function
    | [] -> raise Los_full
    | h :: rest when h.pages >= pages ->
      let remainder =
        if h.pages = pages then []
        else [ { addr = h.addr + (pages * Addr.page_size); pages = h.pages - pages } ]
      in
      (h.addr, List.rev_append acc (remainder @ rest))
    | h :: rest -> take (h :: acc) rest
  in
  let addr, holes = take [] t.holes in
  t.holes <- holes;
  let obj =
    Obj_model.make ~id:(Process.fresh_object_id t.proc) ~addr ~size ~cls ~n_refs
  in
  Hashtbl.replace t.by_addr addr obj;
  obj

let free t obj =
  let addr = obj.Obj_model.addr in
  (match Hashtbl.find_opt t.by_addr addr with
  | Some o when o == obj -> Hashtbl.remove t.by_addr addr
  | Some _ | None -> invalid_arg "Los.free: object not resident");
  let pages = Obj_model.pages obj in
  (* Insert in address order, coalescing with both neighbours. *)
  let rec insert = function
    | [] -> [ { addr; pages } ]
    | h :: rest when addr + (pages * Addr.page_size) < h.addr ->
      { addr; pages } :: h :: rest
    | h :: rest when addr + (pages * Addr.page_size) = h.addr ->
      { addr; pages = pages + h.pages } :: rest
    | h :: rest when h.addr + (h.pages * Addr.page_size) = addr -> (
      (* Merge left; the merged block may now touch the next hole. *)
      let merged = { addr = h.addr; pages = h.pages + pages } in
      match rest with
      | next :: tail when merged.addr + (merged.pages * Addr.page_size) = next.addr
        ->
        { merged with pages = merged.pages + next.pages } :: tail
      | _ -> merged :: rest)
    | h :: rest -> h :: insert rest
  in
  t.holes <- insert t.holes

let object_count t = Hashtbl.length t.by_addr
