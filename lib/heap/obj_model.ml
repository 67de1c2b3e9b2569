open Svagc_vmem

type t = {
  id : int;
  mutable addr : int;
  size : int;
  cls : int;
  refs : int array;
  mutable marked : bool;
  mutable forward : int;
}

let header_bytes = 16

let make ~id ~addr ~size ~cls ~n_refs =
  if size < header_bytes then invalid_arg "Obj_model.make: size below header";
  if n_refs < 0 then invalid_arg "Obj_model.make: negative ref count";
  { id; addr; size; cls; refs = Array.make n_refs 0; marked = false; forward = 0 }

let pages t = Addr.pages_spanned t.size

let end_addr t = t.addr + t.size

let pp ppf t =
  Format.fprintf ppf "obj#%d@%a size=%d cls=%d refs=%d" t.id Addr.pp t.addr t.size
    t.cls (Array.length t.refs)
