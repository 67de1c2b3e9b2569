open Svagc_heap
module Addr = Svagc_vmem.Addr
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Vec = Svagc_util.Vec
module Process = Svagc_kernel.Process

type t = {
  proc : Process.t;
  heap : Heap.t;
  space_bytes : int;
  threads : int;
  mutable low_active : bool;
  mutable cycles : cycle_stats list;
}

and cycle_stats = {
  pause_ns : float;
  concurrent_ns : float;
  evacuated_objects : int;
  swapped_objects : int;
  reclaimed_bytes : int;
}

exception Out_of_memory

(* Share of the mark and evacuation work charged off-pause. *)
let off_pause = 0.9

let create proc ?(threshold_pages = 10) ?(threads = 4) ~space_bytes () =
  let heap =
    Heap.create proc ~threshold_pages ~size_bytes:(2 * Addr.align_up space_bytes)
      ()
  in
  {
    proc;
    heap;
    space_bytes = Addr.align_up space_bytes;
    threads;
    low_active = true;
    cycles = [];
  }

let heap t = t.heap
let cycles t = List.rev t.cycles

let active_base t =
  if t.low_active then Heap.base t.heap else Heap.base t.heap + t.space_bytes

let active_limit t = active_base t + t.space_bytes

let cost t = (Process.machine t.proc).Machine.cost

let makespan t costs =
  Svagc_par.Work_steal.makespan ~threads:t.threads
    ~steal_ns:(cost t).Cost_model.steal_ns
    ~barrier_ns:(cost t).Cost_model.barrier_ns (Array.of_list costs)

let collect t ~mover =
  let used_before = Heap.top t.heap - active_base t in
  let mark_ns = Mark.run t.heap ~threads:t.threads in
  Heap.sort_objects t.heap;
  let live =
    Vec.fold_left
      (fun acc o -> if o.Obj_model.marked then o :: acc else acc)
      [] (Heap.objects t.heap)
    |> List.rev
  in
  (* To-space placement: bump from the idle half's base, page-aligning
     swappable objects (same Algorithm 3 arithmetic). *)
  let to_base =
    if t.low_active then Heap.base t.heap + t.space_bytes else Heap.base t.heap
  in
  let threshold = Heap.threshold_pages t.heap in
  let top = ref to_base in
  let forward = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let align a =
        if Obj_model.is_large o ~threshold_pages:threshold then Addr.align_up a
        else a
      in
      top := align !top;
      o.Obj_model.forward <- !top;
      Hashtbl.replace forward o.Obj_model.addr !top;
      top := align (!top + o.Obj_model.size))
    live;
  if !top > to_base + t.space_bytes then raise Out_of_memory;
  Heap.ensure_mapped_to t.heap (Addr.align_up !top);
  (* Evacuate: from- and to-space are disjoint by construction, so the
     Algorithm 2 path can never fire.  Each relocation is an independent
     call (no aggregation), as in a concurrent collector. *)
  let entries =
    List.map
      (fun o ->
        { Compact.obj = o; src = o.Obj_model.addr; dst = o.Obj_model.forward;
          len = o.Obj_model.size })
      live
  in
  let fixed = mover.Compact.prologue t.heap in
  let outcomes = mover.Compact.move_entries t.heap entries in
  let fixed = fixed +. mover.Compact.epilogue t.heap in
  let evac_ns = makespan t (List.map (fun o -> o.Compact.cost_ns) outcomes) +. fixed in
  let swapped_objects =
    List.fold_left (fun n o -> if o.Compact.swapped then n + 1 else n) 0 outcomes
  in
  (* Commit addresses and references. *)
  let adjust_costs =
    List.map
      (fun o ->
        Array.iteri
          (fun i addr ->
            match Hashtbl.find_opt forward addr with
            | Some fresh -> o.Obj_model.refs.(i) <- fresh
            | None -> ())
          o.Obj_model.refs;
        (cost t).Cost_model.adjust_obj_ns
        +. float_of_int (Array.length o.Obj_model.refs)
           *. (cost t).Cost_model.ref_scan_ns)
      live
  in
  let adjust_ns = makespan t adjust_costs in
  Heap.commit_survivors t.heap (Array.of_list live) ~top:!top;
  t.low_active <- not t.low_active;
  let total = mark_ns +. evac_ns +. adjust_ns in
  let live_bytes = List.fold_left (fun a o -> a + o.Obj_model.size) 0 live in
  let stats =
    {
      pause_ns = (1.0 -. off_pause) *. total;
      concurrent_ns = off_pause *. total;
      evacuated_objects = List.length live;
      swapped_objects;
      reclaimed_bytes = max 0 (used_before - live_bytes);
    }
  in
  t.cycles <- stats :: t.cycles;
  stats

let alloc t ~size ~n_refs ~cls =
  let fits () =
    let top = Heap.top t.heap in
    let aligned =
      if size >= Heap.threshold_pages t.heap * Addr.page_size then
        Addr.align_up top
      else top
    in
    (* Two pages of margin: the allocator tail-aligns large objects, and
       nothing may spill into the idle half. *)
    aligned + size + (2 * Addr.page_size) <= active_limit t
  in
  if fits () then Heap.alloc t.heap ~size ~n_refs ~cls
  else begin
    let mover = Compact.memmove_mover in
    ignore (collect t ~mover);
    if fits () then Heap.alloc t.heap ~size ~n_refs ~cls else raise Out_of_memory
  end
