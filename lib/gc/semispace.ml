open Svagc_heap
module Addr = Svagc_vmem.Addr
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Process = Svagc_kernel.Process

type t = {
  proc : Process.t;
  heap : Heap.t;
  space_bytes : int;
  mutable low_active : bool;
  mutable cycles : Gc_stats.cycle list;
}

exception Out_of_memory

let threads = 4

(* Share of the mark and evacuation work charged off-pause. *)
let off_pause = 0.9

let create proc ~space_bytes () =
  let heap = Heap.create proc ~size_bytes:(2 * Addr.align_up space_bytes) () in
  { proc; heap; space_bytes = Addr.align_up space_bytes; low_active = true;
    cycles = [] }

let heap t = t.heap
let cycles t = List.rev t.cycles

let active_base t =
  if t.low_active then Heap.base t.heap else Heap.base t.heap + t.space_bytes

let active_limit t = active_base t + t.space_bytes

let collect t ~mover =
  let used_bytes = Heap.top t.heap - active_base t in
  let mark_ns = Mark.run t.heap ~threads in
  (* To-space placement: bump from the idle half's base, page-aligning
     swappable objects (same Algorithm 3 arithmetic). *)
  let to_base =
    if t.low_active then Heap.base t.heap + t.space_bytes else Heap.base t.heap
  in
  let top = ref to_base in
  let place live =
    let threshold = Heap.threshold_pages t.heap in
    Array.iter
      (fun o ->
        let align a =
          if Obj_model.is_large o ~threshold_pages:threshold then Addr.align_up a
          else a
        in
        top := align !top;
        o.Obj_model.forward <- !top;
        top := align (!top + o.Obj_model.size))
      live;
    if !top > to_base + t.space_bytes then raise Out_of_memory;
    Heap.ensure_mapped_to t.heap (Addr.align_up !top)
  in
  let commit live =
    Heap.commit_survivors t.heap live ~top:!top;
    t.low_active <- not t.low_active
  in
  let c =
    Evacuate.run t.heap ~into:t.heap ~threads ~mover ~mark_ns ~used_bytes
      ~ref_scan_ns:(Process.machine t.proc).Machine.cost.Cost_model.ref_scan_ns
      ~place ~commit
  in
  (* Only the init/final slices of each phase stop the world. *)
  let on_pause = 1.0 -. off_pause in
  let cycle =
    {
      c with
      Gc_stats.mark_ns = on_pause *. c.Gc_stats.mark_ns;
      adjust_ns = on_pause *. c.Gc_stats.adjust_ns;
      compact_ns = on_pause *. c.Gc_stats.compact_ns;
      concurrent_ns =
        off_pause
        *. (c.Gc_stats.mark_ns +. c.Gc_stats.compact_ns +. c.Gc_stats.adjust_ns);
    }
  in
  t.cycles <- cycle :: t.cycles;
  cycle

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
    ignore (collect t ~mover:Compact.memmove_mover);
    if fits () then Heap.alloc t.heap ~size ~n_refs ~cls else raise Out_of_memory
  end
