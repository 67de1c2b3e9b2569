open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Perf = Svagc_vmem.Perf
module Vec = Svagc_util.Vec

let run from ~into ~threads ~mover ~mark_ns ~ref_scan_ns =
  let machine = Svagc_kernel.Process.machine (Heap.proc from) in
  let cost = machine.Machine.cost in
  let before = Perf.copy machine.Machine.perf in
  let used_bytes = Heap.used_bytes from in
  let live = Forward.live_in_address_order from in
  let new_top = Heap.place into ~top:(Heap.top into) live in
  if new_top > Heap.limit into then raise Heap.Heap_full;
  Heap.ensure_mapped_to into new_top;
  let moved = Compact.move from ~threads ~mover live in
  Heap.adopt_survivors into live ~top:new_top;
  (* References hold records, so they already follow the moves; what a
     real VM rewrites is charged per object of [into]. *)
  let referrers = Heap.objects into in
  let rewrite_costs =
    Array.init (Vec.length referrers) (fun i ->
        cost.Cost_model.adjust_obj_ns
        +. (float_of_int (Array.length (Vec.get referrers i).Obj_model.refs)
           *. ref_scan_ns))
  in
  Heap.iter_roots from (Heap.add_root into);
  Heap.reset from;
  let live_bytes = Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 live in
  let delta = Perf.diff ~after:machine.Machine.perf ~before in
  {
    Gc_stats.mark_ns;
    forward_ns = 0.0;
    adjust_ns =
      Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
        ~barrier_ns:cost.Cost_model.barrier_ns rewrite_costs;
    compact_ns = moved.Compact.phase_ns;
    concurrent_ns = 0.0;
    live_objects = Array.length live;
    live_bytes;
    reclaimed_bytes = max 0 (used_bytes - live_bytes);
    moved_objects = moved.Compact.moved_objects;
    swapped_objects = moved.Compact.swapped_objects;
    bytes_copied = Perf.get delta Bytes_copied;
    bytes_remapped = Perf.get delta Bytes_remapped;
  }
