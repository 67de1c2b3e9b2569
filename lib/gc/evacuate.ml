open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Perf = Svagc_vmem.Perf
module Vec = Svagc_util.Vec

let run from ~into ~threads ~mover ~mark_ns ~used_bytes ~ref_scan_ns ~place
    ~commit =
  let machine = Svagc_kernel.Process.machine (Heap.proc from) in
  let cost = machine.Machine.cost in
  let makespan costs =
    Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
      ~barrier_ns:cost.Cost_model.barrier_ns costs
  in
  let before = Perf.copy machine.Machine.perf in
  Heap.sort_objects from;
  let live =
    Vec.fold_left
      (fun acc o -> if o.Obj_model.marked then o :: acc else acc)
      [] (Heap.objects from)
    |> List.rev |> Array.of_list
  in
  place live;
  let forward = Hashtbl.create 64 in
  Array.iter
    (fun o -> Hashtbl.replace forward o.Obj_model.addr o.Obj_model.forward)
    live;
  let entries =
    List.map
      (fun o ->
        { Compact.obj = o; src = o.Obj_model.addr; dst = o.Obj_model.forward;
          len = o.Obj_model.size })
      (Array.to_list live)
  in
  let fixed = mover.Compact.prologue from in
  let outcomes = mover.Compact.move_entries from entries in
  let fixed = fixed +. mover.Compact.epilogue from in
  let compact_ns =
    makespan (Array.of_list (List.map (fun o -> o.Compact.cost_ns) outcomes))
    +. fixed
  in
  let swapped_objects =
    List.fold_left (fun n o -> if o.Compact.swapped then n + 1 else n) 0 outcomes
  in
  commit live;
  let referrers = Heap.objects into in
  let rewrite_costs = Array.make (Vec.length referrers) 0.0 in
  Vec.iteri
    (fun i o ->
      let refs = o.Obj_model.refs in
      Array.iteri
        (fun j addr ->
          match Hashtbl.find_opt forward addr with
          | Some fresh -> refs.(j) <- fresh
          | None -> ())
        refs;
      rewrite_costs.(i) <-
        cost.Cost_model.adjust_obj_ns
        +. (float_of_int (Array.length refs) *. ref_scan_ns))
    referrers;
  let live_bytes = Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 live in
  let delta = Perf.diff ~after:machine.Machine.perf ~before in
  {
    Gc_stats.mark_ns;
    forward_ns = 0.0;
    adjust_ns = makespan rewrite_costs;
    compact_ns;
    concurrent_ns = 0.0;
    live_objects = Array.length live;
    live_bytes;
    reclaimed_bytes = max 0 (used_bytes - live_bytes);
    moved_objects = Array.length live;
    swapped_objects;
    bytes_copied = Perf.get delta Bytes_copied;
    bytes_remapped = Perf.get delta Bytes_remapped;
  }
