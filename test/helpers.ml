(* Shared fixtures for the GC-level test suites: random-but-deterministic
   heap populations with a mix of small and swappable objects, links and a
   partial root set. *)

open Svagc_vmem
open Svagc_heap
module Process = Svagc_kernel.Process
module Rng = Svagc_util.Rng

let machine ?(ncores = 4) ?(phys_mib = 128) () =
  Machine.create ~ncores ~phys_mib Cost_model.xeon_6130

let heap ?(size_mib = 24) ?(threshold_pages = 10) ?machine:m () =
  let m = match m with Some m -> m | None -> machine () in
  let proc = Process.create m in
  Heap.create proc ~threshold_pages ~size_bytes:(size_mib * 1024 * 1024) ()

type population = {
  heap : Heap.t;
  rooted : Obj_model.t list;  (** objects expected to survive *)
  dropped : Obj_model.t list;  (** garbage *)
}

(* Allocate [n] objects; ~40% large (page-aligned, swappable), 60% small;
   even-indexed objects become roots, odd ones are garbage; each rooted
   object links to the previous rooted one. *)
let populate ?(n = 120) ?(seed = 42) heap =
  let rng = Rng.create ~seed in
  let rooted = ref [] and dropped = ref [] in
  let prev_root = ref None in
  for i = 0 to n - 1 do
    let size =
      if Rng.int rng 10 < 4 then (40 * 1024) + Rng.int rng (64 * 1024)
      else 64 + Rng.int rng 2048
    in
    let obj = Heap.alloc heap ~size ~n_refs:2 ~cls:(i mod 3) in
    (* Distinct payload so checksums discriminate objects. *)
    Heap.write_payload heap obj ~off:0
      (Bytes.make (min 64 (size - Obj_model.header_bytes)) (Char.chr (i mod 256)));
    if i mod 2 = 0 then begin
      Heap.add_root heap obj;
      (match !prev_root with
      | Some p -> Heap.set_ref heap obj ~slot:0 (Some p)
      | None -> ());
      prev_root := Some obj;
      rooted := obj :: !rooted
    end
    else dropped := obj :: !dropped
  done;
  { heap; rooted = List.rev !rooted; dropped = List.rev !dropped }

let checksums heap objs = List.map (fun o -> (o, Heap.checksum_object heap o)) objs

let assert_checksums heap tagged =
  List.iter
    (fun (o, c) ->
      if Heap.checksum_object heap o <> c then
        Alcotest.failf "object %d: payload corrupted by the GC" o.Obj_model.id;
      if not (Heap.header_matches heap o) then
        Alcotest.failf "object %d: header mismatch after move" o.Obj_model.id)
    tagged

(* A reachability-correct view: every rooted object and everything it
   links to must be live after a collection. *)
let assert_live_set heap rooted =
  List.iter
    (fun o ->
      match Heap.object_at heap o.Obj_model.addr with
      | Some found when found == o -> ()
      | Some _ | None ->
        Alcotest.failf "rooted object %d lost by the GC" o.Obj_model.id)
    rooted

(* A page's payload holding [s] (one page long), made the way the
   simulator makes one: written into a frame, then taken from it. *)
let payload_of_string s =
  let pm = Phys_mem.create ~frames:1 in
  let frame = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame ~off:0 ~src:(Bytes.of_string s) ~src_off:0
    ~len:(String.length s);
  Phys_mem.take_frame pm frame

let string_of_payload p =
  let b = Bytes.create Addr.page_size in
  Phys_mem.read_into p ~off:0 ~len:Addr.page_size ~dst:b ~dst_off:0;
  Bytes.to_string b
