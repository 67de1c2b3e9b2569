open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Vec = Svagc_util.Vec
module Process = Svagc_kernel.Process

type t = {
  proc : Process.t;
  young : Heap.t;
  old_space : Heap.t;
  mutable minors : Gc_stats.cycle list;
}

exception Out_of_memory

let threads = 4

let gib = 1024 * 1024 * 1024

let create proc ~young_bytes ~old_bytes () =
  let young = Heap.create proc ~base:(4 * gib) ~size_bytes:young_bytes () in
  let old_space = Heap.create proc ~base:(8 * gib) ~size_bytes:old_bytes () in
  { proc; young; old_space; minors = [] }

let young t = t.young
let old_space t = t.old_space
let minors t = List.rev t.minors

let in_young t addr = addr >= Heap.base t.young && addr < Heap.limit t.young

let add_root t obj =
  if in_young t obj.Obj_model.addr then Heap.add_root t.young obj
  else Heap.add_root t.old_space obj

let remove_root t obj =
  Heap.remove_root t.young obj;
  Heap.remove_root t.old_space obj

let set_ref t obj ~slot target = Heap.set_ref t.young obj ~slot target

(* [Obj_model.null] sits at address 0, outside the nursery. *)
let deref t obj ~slot =
  let target = obj.Obj_model.refs.(slot) in
  Heap.deref
    (if in_young t target.Obj_model.addr then t.young else t.old_space)
    obj ~slot

let cost t = (Process.machine t.proc).Machine.cost

let makespan t costs =
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:(cost t).Cost_model.steal_ns
    ~barrier_ns:(cost t).Cost_model.barrier_ns costs

(* A young target of a reference, checked: a collection must not have
   dropped it. *)
let young_target what target =
  if Obj_model.dropped target then
    invalid_arg
      (Format.asprintf "Generational: %s reference to dropped %a" what Obj_model.pp
         target)

(* Young reachability: nursery roots plus every old->young reference (the
   remembered-set scan, whose cost is charged per old object examined). *)
let mark_young t =
  Vec.iter (fun o -> o.Obj_model.marked <- false) (Heap.objects t.young);
  let work = Vec.create () in
  Heap.iter_roots t.young (fun o -> Vec.push work o);
  let scan_costs = ref [] in
  Vec.iter
    (fun old_obj ->
      scan_costs := (cost t).Cost_model.forward_obj_ns :: !scan_costs;
      Array.iter
        (fun o ->
          if o != Obj_model.null && in_young t o.Obj_model.addr then begin
            young_target "old->young" o;
            Vec.push work o
          end)
        old_obj.Obj_model.refs)
    (Heap.objects t.old_space);
  let mark_costs = ref [] in
  let rec drain () =
    match Vec.pop work with
    | None -> ()
    | Some o ->
      if not o.Obj_model.marked then begin
        o.Obj_model.marked <- true;
        mark_costs :=
          ((cost t).Cost_model.mark_obj_ns
          +. float_of_int (Array.length o.Obj_model.refs)
             *. (cost t).Cost_model.ref_scan_ns)
          :: !mark_costs;
        Array.iter
          (fun target ->
            if target != Obj_model.null && in_young t target.Obj_model.addr
            then begin
              young_target "young" target;
              if not target.Obj_model.marked then Vec.push work target
            end)
          o.Obj_model.refs
      end;
      drain ()
  in
  drain ();
  makespan t (Array.of_list !scan_costs) +. makespan t (Array.of_list !mark_costs)

module Tracer = Svagc_trace.Tracer

(* Promotion: survivors go to the old space at Algorithm 3 placements and
   keep their rootedness; the old space's references are rewritten with a
   flat charge per object (the remembered-set scan); the nursery empties. *)
let run_minor t ~mover =
  let mark_ns = mark_young t in
  let cycle =
    try
      Evacuate.run t.young ~into:t.old_space ~threads ~mover ~mark_ns
        ~ref_scan_ns:0.0
    with Heap.Heap_full -> raise Out_of_memory
  in
  t.minors <- cycle :: t.minors;
  cycle

(* A minor collection is one span; a promotion that cannot fit aborts it. *)
let minor t ~mover =
  Tracer.span_begin ~cat:"gc" "minor";
  match run_minor t ~mover with
  | c ->
    Tracer.span_end
      ~args:
        [
          ("promoted_objects", Svagc_trace.Event.Int c.Gc_stats.moved_objects);
          ("promoted_bytes", Svagc_trace.Event.Int c.Gc_stats.live_bytes);
          ("swapped_objects", Svagc_trace.Event.Int c.Gc_stats.swapped_objects);
        ]
      ~dur_ns:(Gc_stats.pause_ns c) ();
    c
  | exception e ->
    Tracer.span_abort ();
    raise e

let alloc t ~size ~n_refs ~cls =
  match Heap.alloc t.young ~size ~n_refs ~cls with
  | obj -> obj
  | exception Heap.Heap_full -> (
    ignore (minor t ~mover:Compact.memmove_mover);
    match Heap.alloc t.young ~size ~n_refs ~cls with
    | obj -> obj
    | exception Heap.Heap_full -> (
      (* Bigger than the nursery can hold: pretenure into the old space. *)
      try Heap.alloc t.old_space ~size ~n_refs ~cls
      with Heap.Heap_full -> raise Out_of_memory))
