open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Process = Svagc_kernel.Process

(* Compact stays on the calling domain (DESIGN.md §13): moves slide
   objects in ascending address order (a later move may read the bytes an
   earlier one vacated), and the SwapVA mover's walk-cache and
   pmd_cache_hits counters carry temporal state between consecutive
   requests — fanning the move stream out would change counters and costs,
   breaking bit-identity.  Host parallelism enters through the phases that
   are genuinely data-parallel (mark's clear sweep, adjust's rewrites,
   Par_sweep). *)

type plan = {
  objects : Obj_model.t array;
  streams : int;
}

type mover = {
  mover_name : string;
  prologue : Heap.t -> float;
  move_entries : Heap.t -> plan -> float array * int;
  epilogue : Heap.t -> float;
}

type result = {
  phase_ns : float;
  moved_objects : int;
  swapped_objects : int;
}

let memmove_mover_gen ?measure_core () =
  {
    mover_name = "memmove";
    prologue = (fun _ -> 0.0);
    move_entries =
      (fun heap { objects; streams } ->
        let aspace = Process.aspace (Heap.proc heap) in
        let costs = Array.make (Array.length objects) 0.0 in
        Array.iteri
          (fun i o ->
            Svagc_kernel.Memmove.move_into costs i ~measure_core ~cold:true ~streams
              aspace ~src:o.Obj_model.addr ~dst:o.Obj_model.forward
              ~len:o.Obj_model.size)
          objects;
        (costs, 0));
    epilogue = (fun _ -> 0.0);
  }

let memmove_mover = memmove_mover_gen ()

let memmove_mover_measured ~core = memmove_mover_gen ~measure_core:core ()

let move heap ~threads ~mover objects =
  let proc = Heap.proc heap in
  let cost = (Process.machine proc).Machine.cost in
  (* The pass runs [threads] copy streams next to every co-runner's, so
     each move gets that share of the bandwidth ceiling (the makespan then
     recombines them, saturating at machine_copy_bw). *)
  let plan = { objects; streams = Process.co_runners proc * threads } in
  let fixed = mover.prologue heap in
  let costs, swapped_objects = mover.move_entries heap plan in
  let fixed = fixed +. mover.epilogue heap in
  let makespan =
    Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
      ~barrier_ns:cost.Cost_model.barrier_ns costs
  in
  {
    phase_ns = makespan +. fixed;
    moved_objects = Array.length objects;
    swapped_objects;
  }

let run heap ~threads ~mover ~live ~new_top =
  (* The plan: the objects that move, in address order. *)
  let moves o = o.Obj_model.addr <> o.Obj_model.forward in
  let n = Array.fold_left (fun n o -> if moves o then n + 1 else n) 0 live in
  let moving = if n = 0 then [||] else Array.make n live.(0) in
  let k = ref 0 in
  Array.iter (fun o -> if moves o then (moving.(!k) <- o; incr k)) live;
  let result = move heap ~threads ~mover moving in
  (* Commit the new addresses and re-stamp nothing: bytes moved with the
     objects, so the stamped headers must still match (tests rely on it).
     Every live object's [forward] is its destination, moved or not. *)
  Heap.commit_survivors heap live ~top:new_top;
  result
