open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* One pass over [live] in address order, so a reference to an object
   this collection or an earlier one dropped raises at the first
   offender.  Nothing is rewritten: slots hold records, and the commit
   moves [addr] on the record itself.  The cost vector is in reverse
   address order ([costs.(n - 1 - idx)]): the makespan replay deals tasks
   out by index, so this order is part of every published adjust time. *)
let run heap ~threads ~live =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let n = Array.length live in
  let costs = Array.make n 0.0 in
  for idx = 0 to n - 1 do
    let o = live.(idx) in
    let refs = o.Obj_model.refs in
    for i = 0 to Array.length refs - 1 do
      let target = refs.(i) in
      if target != Obj_model.null && not target.Obj_model.marked then
        invalid_arg
          (Printf.sprintf "Adjust.run: object %d references dead object %d"
             o.Obj_model.id target.Obj_model.id)
    done;
    costs.(n - 1 - idx) <-
      cost.Cost_model.adjust_obj_ns
      +. (float_of_int (Array.length refs) *. cost.Cost_model.ref_scan_ns)
  done;
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns costs
