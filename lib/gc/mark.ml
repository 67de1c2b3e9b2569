open Svagc_heap
module Vec = Svagc_util.Vec
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* The flag-clear sweep is the data-parallel part of marking: every object
   record is distinct and the sweep produces no value, so each shard can
   clear a disjoint [Reduce.slice] of the object vec on its own domain with
   nothing to merge.  The traversal below stays sequential on purpose —
   mark order defines the cost-vector order the simulated schedule replays
   (DESIGN.md §13). *)
let clear_marks heap ~shards =
  let objs = Heap.objects heap in
  let n = Vec.length objs in
  Svagc_par.Domain_pool.run
    (Svagc_par.Domain_pool.global ())
    ~shards
    (fun s ->
      let lo, hi = Svagc_par.Reduce.slice ~len:n ~shards s in
      for idx = lo to hi - 1 do
        (Vec.get objs idx).Obj_model.marked <- false
      done)

(* The traversal allocates nothing per object or edge: costs go straight
   into an unboxed float buffer, the stack pops without options and
   lookups go through [Heap.find_object].  The buffer holds one slot per
   root and per heap object, which bounds the marked set: every object
   the address index returns is in the object vector. *)
let run heap ~threads =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  clear_marks heap ~shards:threads;
  let stack = Vec.create () in
  Heap.iter_roots heap (fun o -> Vec.push stack o);
  let costs = Array.make (Vec.length (Heap.objects heap) + Vec.length stack) 0.0 in
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
        let addr = refs.(i) in
        if addr <> 0 then
          match Heap.find_object heap addr with
          | target -> if not target.Obj_model.marked then Vec.push stack target
          | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Mark.run: dangling reference 0x%x (GC bug)" addr)
      done
    end
  done;
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns (Array.sub costs 0 !n)
