open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* One pass over [live] in address order, so a dangling or dead reference
   raises at the first offender.  The cost vector is in reverse address
   order ([costs.(n - 1 - idx)]): the makespan replay deals tasks out by
   index, so this order is part of every published adjust time. *)
let run heap ~threads ~live =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let n = Array.length live in
  let costs = Array.make n 0.0 in
  for idx = 0 to n - 1 do
    let refs = live.(idx).Obj_model.refs in
    for i = 0 to Array.length refs - 1 do
      let addr = refs.(i) in
      if addr <> 0 then
        match Heap.find_object heap addr with
        | target ->
          if not target.Obj_model.marked then
            invalid_arg "Adjust.run: live object references a dead one";
          refs.(i) <- target.Obj_model.forward
        | exception Not_found ->
          invalid_arg (Printf.sprintf "Adjust.run: dangling reference 0x%x" addr)
    done;
    costs.(n - 1 - idx) <-
      cost.Cost_model.adjust_obj_ns
      +. (float_of_int (Array.length refs) *. cost.Cost_model.ref_scan_ns)
  done;
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns costs
