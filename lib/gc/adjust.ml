open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* The adjust phase really is data-parallel: each live object rewrites only
   its OWN refs array (shard-local by ownership — an object is in exactly
   one shard's slice), and the reads it does against other objects
   ([marked], [forward], the address hashtable) are of state nothing
   mutates during the phase.  Shard count is [threads] — part of the GC
   configuration, never the host domain count — and the cost vector is
   written by absolute index, preserving the exact order the previous
   sequential implementation (a [List.rev_map] over the live list)
   produced, so the replayed work-stealing makespan is bit-identical at
   any domain count.
   A dangling/dead reference still raises the same exception: shards are
   contiguous slices in address order and the pool re-raises the
   lowest-numbered failing shard's (its first, hence the globally first,
   offender). *)
let run heap ~threads ~live =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let n = Array.length live in
  let costs = Array.make n 0.0 in
  Svagc_par.Domain_pool.run
    (Svagc_par.Domain_pool.global ())
    ~shards:threads
    (fun s ->
      let lo, hi = Svagc_par.Reduce.slice ~len:n ~shards:threads s in
      for idx = lo to hi - 1 do
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
      done);
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns costs
