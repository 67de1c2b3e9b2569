open Svagc_heap
module Vec = Svagc_util.Vec
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* A reference to an object a collection dropped, or to one outside
   [[base, top)], is a GC bug; every other target is in the object
   vector. *)
let bad_target target =
  invalid_arg
    (Format.asprintf "Mark.run: %s reference to %a (GC bug)"
       (if Obj_model.dropped target then "dropped" else "foreign")
       Obj_model.pp target)

(* The traversal allocates nothing per object or edge: costs go straight
   into an unboxed float buffer, the stack pops without options and a
   reference is its target's record.  The buffer holds one slot per root
   and per heap object, which bounds the marked set: the checks let
   through only objects of the object vector.  The traversal is
   sequential on purpose — mark order defines the cost-vector order the
   simulated schedule replays (DESIGN.md §13). *)
let run heap ~threads =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let objs = Heap.objects heap in
  for idx = 0 to Vec.length objs - 1 do
    (Vec.get objs idx).Obj_model.marked <- false
  done;
  let base = Heap.base heap and top = Heap.top heap in
  let stack = Vec.create () in
  Heap.iter_roots heap (fun o -> Vec.push stack o);
  let costs = Array.make (Vec.length objs + Vec.length stack) 0.0 in
  let n = ref 0 in
  while not (Vec.is_empty stack) do
    let o = Vec.pop_last stack in
    if not o.Obj_model.marked then begin
      o.Obj_model.marked <- true;
      let refs = o.Obj_model.refs in
      costs.(!n) <-
        cost.Cost_model.mark_obj_ns
        +. (float_of_int (Array.length refs) *. cost.Cost_model.ref_scan_ns);
      incr n;
      for i = 0 to Array.length refs - 1 do
        let target = refs.(i) in
        if target != Obj_model.null then begin
          let addr = target.Obj_model.addr in
          if Obj_model.dropped target || addr < base || addr >= top then
            bad_target target;
          if not target.Obj_model.marked then Vec.push stack target
        end
      done
    end
  done;
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns (Array.sub costs 0 !n)
