open Svagc_heap
module Addr = Svagc_vmem.Addr
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Vec = Svagc_util.Vec
module Process = Svagc_kernel.Process

type t = {
  proc : Process.t;
  young : Heap.t;
  old_space : Heap.t;
  threads : int;
  mutable minors : minor_stats list;
}

and minor_stats = {
  pause_ns : float;
  promoted_objects : int;
  promoted_bytes : int;
  swapped_objects : int;
  reclaimed_bytes : int;
}

exception Out_of_memory

let gib = 1024 * 1024 * 1024

let create proc ?(threshold_pages = 10) ~young_bytes ~old_bytes () =
  let young =
    Heap.create proc ~base:(4 * gib) ~threshold_pages ~size_bytes:young_bytes ()
  in
  let old_space =
    Heap.create proc ~base:(8 * gib) ~threshold_pages ~size_bytes:old_bytes ()
  in
  { proc; young; old_space; threads = 4; minors = [] }

let young t = t.young
let old_space t = t.old_space
let minors t = List.rev t.minors

let in_young t addr = addr >= Heap.base t.young && addr < Heap.limit t.young

let lookup t addr =
  if addr = 0 then None
  else if in_young t addr then Heap.object_at t.young addr
  else Heap.object_at t.old_space addr

let add_root t obj =
  if in_young t obj.Obj_model.addr then Heap.add_root t.young obj
  else Heap.add_root t.old_space obj

let remove_root t obj =
  Heap.remove_root t.young obj;
  Heap.remove_root t.old_space obj

let set_ref t obj ~slot target = Heap.set_ref t.young obj ~slot target

let deref t obj ~slot =
  let addr = obj.Obj_model.refs.(slot) in
  match lookup t addr with
  | Some o -> Some o
  | None ->
    if addr = 0 then None
    else invalid_arg "Generational.deref: dangling reference (GC bug)"

let cost t = (Process.machine t.proc).Machine.cost

let makespan t costs =
  Svagc_par.Work_steal.makespan ~threads:t.threads
    ~steal_ns:(cost t).Cost_model.steal_ns
    ~barrier_ns:(cost t).Cost_model.barrier_ns costs

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
        (fun addr ->
          if addr <> 0 && in_young t addr then
            match Heap.object_at t.young addr with
            | Some o -> Vec.push work o
            | None -> invalid_arg "Generational: stale old->young reference")
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
          (fun addr ->
            if addr <> 0 && in_young t addr then
              match Heap.object_at t.young addr with
              | Some target ->
                if not target.Obj_model.marked then Vec.push work target
              | None -> invalid_arg "Generational: dangling young reference")
          o.Obj_model.refs
      end;
      drain ()
  in
  drain ();
  makespan t (Array.of_list !scan_costs) +. makespan t (Array.of_list !mark_costs)

(* Exact old-space capacity needed to promote [live] (replays the reserve
   arithmetic without committing). *)
let promotion_demand t live =
  let threshold = Heap.threshold_pages t.old_space in
  let top = ref (Heap.top t.old_space) in
  List.iter
    (fun o ->
      let align a =
        if Obj_model.is_large o ~threshold_pages:threshold then Addr.align_up a
        else a
      in
      top := align !top + o.Obj_model.size;
      top := align !top)
    live;
  !top - Heap.top t.old_space

module Tracer = Svagc_trace.Tracer

let run_minor t ~mover =
  let used_before = Heap.used_bytes t.young in
  let mark_ns = mark_young t in
  Heap.sort_objects t.young;
  let live =
    Vec.fold_left
      (fun acc o -> if o.Obj_model.marked then o :: acc else acc)
      [] (Heap.objects t.young)
    |> List.rev
  in
  if promotion_demand t live > Heap.free_bytes t.old_space then raise Heap.Heap_full;
  (* Forward: destinations in the old space (Algorithm 3 placement). *)
  let forward = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let dst = Heap.reserve t.old_space ~size:o.Obj_model.size in
      o.Obj_model.forward <- dst;
      Hashtbl.replace forward o.Obj_model.addr dst)
    live;
  (* Copy/swap young -> old: disjoint spaces, so the overlap path never
     fires; aggregation and PMD caching apply (Table I row 2). *)
  let entries =
    List.map
      (fun o ->
        { Compact.obj = o; src = o.Obj_model.addr; dst = o.Obj_model.forward;
          len = o.Obj_model.size })
      live
  in
  let fixed = mover.Compact.prologue t.young in
  let outcomes = mover.Compact.move_entries t.young entries in
  let fixed = fixed +. mover.Compact.epilogue t.young in
  let copy_ns =
    makespan t (Array.of_list (List.map (fun o -> o.Compact.cost_ns) outcomes))
    +. fixed
  in
  let swapped_objects =
    List.fold_left (fun n o -> if o.Compact.swapped then n + 1 else n) 0 outcomes
  in
  (* Commit: adopt survivors in the old space, keep rootedness. *)
  let adjust_costs = ref [] in
  List.iter
    (fun o ->
      let was_root =
        let rooted = ref false in
        Heap.iter_roots t.young (fun r -> if r == o then rooted := true);
        !rooted
      in
      o.Obj_model.addr <- o.Obj_model.forward;
      o.Obj_model.forward <- 0;
      o.Obj_model.marked <- false;
      Heap.adopt t.old_space o;
      if was_root then Heap.add_root t.old_space o)
    live;
  (* Rewrite every reference to a promoted object (old objects' refs and
     the promoted objects' own young-to-young links). *)
  Vec.iter
    (fun o ->
      adjust_costs := (cost t).Cost_model.adjust_obj_ns :: !adjust_costs;
      Array.iteri
        (fun i addr ->
          match Hashtbl.find_opt forward addr with
          | Some fresh -> o.Obj_model.refs.(i) <- fresh
          | None -> ())
        o.Obj_model.refs)
    (Heap.objects t.old_space);
  let adjust_ns = makespan t (Array.of_list !adjust_costs) in
  Heap.reset t.young;
  let promoted_bytes =
    List.fold_left (fun acc o -> acc + o.Obj_model.size) 0 live
  in
  let stats =
    {
      pause_ns = mark_ns +. copy_ns +. adjust_ns;
      promoted_objects = List.length live;
      promoted_bytes;
      swapped_objects;
      reclaimed_bytes = max 0 (used_before - promoted_bytes);
    }
  in
  t.minors <- stats :: t.minors;
  stats

(* A minor collection is one span; promotion-overflow aborts the span
   (the caller falls back to an old-space collection). *)
let minor t ~mover =
  Tracer.span_begin ~cat:"gc" "minor";
  match run_minor t ~mover with
  | stats ->
    Tracer.span_end
      ~args:
        [
          ("promoted_objects", Svagc_trace.Event.Int stats.promoted_objects);
          ("promoted_bytes", Svagc_trace.Event.Int stats.promoted_bytes);
          ("swapped_objects", Svagc_trace.Event.Int stats.swapped_objects);
        ]
      ~dur_ns:stats.pause_ns ();
    stats
  | exception e ->
    Tracer.span_abort ();
    raise e

(* Old-space collection while the nursery is still populated: young
   objects act as extra roots into the old space, their references are
   adjusted alongside, and young objects themselves do not move. *)
let run_collect_old_with_young t ~mover =
  let top_before = Heap.top t.old_space in
  Vec.iter (fun o -> o.Obj_model.marked <- false) (Heap.objects t.old_space);
  let work = Vec.create () in
  Heap.iter_roots t.old_space (fun o -> Vec.push work o);
  Vec.iter
    (fun young_obj ->
      Array.iter
        (fun addr ->
          if addr <> 0 && not (in_young t addr) then
            match Heap.object_at t.old_space addr with
            | Some o -> Vec.push work o
            | None -> invalid_arg "Generational: stale young->old reference")
        young_obj.Obj_model.refs)
    (Heap.objects t.young);
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
          (fun addr ->
            if addr <> 0 && not (in_young t addr) then
              match Heap.object_at t.old_space addr with
              | Some target ->
                if not target.Obj_model.marked then Vec.push work target
              | None -> invalid_arg "Generational: dangling old reference")
          o.Obj_model.refs
      end;
      drain ()
  in
  drain ();
  let mark_ns = makespan t (Array.of_list !mark_costs) in
  let fwd = Forward.run t.old_space ~threads:t.threads in
  (* Adjust: old-live references to moving old objects, skipping young
     targets (young does not move here); plus young objects' references to
     moving old objects. *)
  let adjust_one o =
    Array.iteri
      (fun i addr ->
        if addr <> 0 && not (in_young t addr) then
          match Heap.object_at t.old_space addr with
          | Some target -> o.Obj_model.refs.(i) <- target.Obj_model.forward
          | None -> invalid_arg "Generational: dangling reference in adjust")
      o.Obj_model.refs;
    (cost t).Cost_model.adjust_obj_ns
    +. float_of_int (Array.length o.Obj_model.refs)
       *. (cost t).Cost_model.ref_scan_ns
  in
  let live = fwd.Forward.live in
  let n_live = Array.length live in
  let young = Heap.objects t.young in
  let adjust_costs = Array.make (n_live + Vec.length young) 0.0 in
  Array.iteri (fun i o -> adjust_costs.(i) <- adjust_one o) live;
  Vec.iteri (fun i o -> adjust_costs.(n_live + i) <- adjust_one o) young;
  let adjust_ns = makespan t adjust_costs in
  let live_bytes = Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 live in
  let compact =
    Compact.run t.old_space ~threads:t.threads ~mover ~live
      ~new_top:fwd.Forward.new_top
  in
  {
    Gc_stats.mark_ns;
    forward_ns = fwd.Forward.phase_ns;
    adjust_ns;
    compact_ns = compact.Compact.phase_ns;
    concurrent_ns = 0.0;
    live_objects = n_live;
    live_bytes;
    reclaimed_bytes = max 0 (top_before - fwd.Forward.new_top);
    moved_objects = compact.Compact.moved_objects;
    swapped_objects = compact.Compact.swapped_objects;
    bytes_copied = 0;
    bytes_remapped = 0;
  }

let collect_old_with_young t ~mover =
  Tracer.span_begin ~cat:"gc" "generational-old";
  match run_collect_old_with_young t ~mover with
  | cycle ->
    Tracer.span_end
      ~args:[ ("live_objects", Svagc_trace.Event.Int cycle.Gc_stats.live_objects) ]
      ~dur_ns:(Gc_stats.pause_ns cycle) ();
    cycle
  | exception e ->
    Tracer.span_abort ();
    raise e

(* Full collection: evacuate the nursery first when promotion fits (the
   usual "full implies young collection" policy); otherwise collect the
   old space with the nursery treated as roots, which frees the headroom
   the next minor needs. *)
let full t ~mover =
  match
    if Heap.object_count t.young > 0 then Some (minor t ~mover) else None
  with
  | Some m ->
    let cfg =
      Lisp2.config ~label:"generational-full" ~threads:t.threads ~mover ()
    in
    let cycle = Lisp2.collect cfg t.old_space in
    { cycle with Gc_stats.compact_ns = cycle.Gc_stats.compact_ns +. m.pause_ns }
  | None ->
    let cfg =
      Lisp2.config ~label:"generational-full" ~threads:t.threads ~mover ()
    in
    Lisp2.collect cfg t.old_space
  | exception Heap.Heap_full -> collect_old_with_young t ~mover

let alloc t ~size ~n_refs ~cls =
  let try_young () = Heap.alloc t.young ~size ~n_refs ~cls in
  let mover = Compact.memmove_mover in
  match try_young () with
  | obj -> obj
  | exception Heap.Heap_full -> (
    match minor t ~mover with
    | _ -> (
      match try_young () with
      | obj -> obj
      | exception Heap.Heap_full ->
        (* Bigger than the nursery can hold: pretenure into the old
           space. *)
        (try Heap.alloc t.old_space ~size ~n_refs ~cls
         with Heap.Heap_full -> raise Out_of_memory))
    | exception Heap.Heap_full -> (
      (* Promotion would not fit: collect the old space, then retry the
         minor via the allocation path. *)
      ignore (full t ~mover);
      match try_young () with
      | obj -> obj
      | exception Heap.Heap_full -> (
        try Heap.alloc t.old_space ~size ~n_refs ~cls
        with Heap.Heap_full -> raise Out_of_memory)))
