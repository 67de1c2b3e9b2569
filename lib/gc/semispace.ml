open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Process = Svagc_kernel.Process

type t = {
  proc : Process.t;
  mutable active : Heap.t;
  mutable idle : Heap.t;
  mutable cycles : Gc_stats.cycle list;
}

exception Out_of_memory

let threads = 4

(* Share of the mark and evacuation work charged off-pause. *)
let off_pause = 0.9

let create proc ~space_bytes () =
  let active = Heap.create proc ~size_bytes:space_bytes () in
  let idle = Heap.create proc ~base:(Heap.limit active) ~size_bytes:space_bytes () in
  { proc; active; idle; cycles = [] }

let heap t = t.active
let cycles t = List.rev t.cycles

let collect t ~mover =
  let mark_ns = Mark.run t.active ~threads in
  let c =
    try
      Evacuate.run t.active ~into:t.idle ~threads ~mover ~mark_ns
        ~ref_scan_ns:(Process.machine t.proc).Machine.cost.Cost_model.ref_scan_ns
    with Heap.Heap_full -> raise Out_of_memory
  in
  let emptied = t.active in
  t.active <- t.idle;
  t.idle <- emptied;
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
  try Heap.alloc t.active ~size ~n_refs ~cls
  with Heap.Heap_full -> (
    ignore (collect t ~mover:Compact.memmove_mover);
    try Heap.alloc t.active ~size ~n_refs ~cls
    with Heap.Heap_full -> raise Out_of_memory)
