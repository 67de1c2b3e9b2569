open Svagc_heap
module Vec = Svagc_util.Vec
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

type result = {
  phase_ns : float;
  new_top : int;
  waste_bytes : int;
  live : Obj_model.t array;
}

(* The marked objects in ascending address order, gathered in one pass
   over the object vector together with their addresses.  Only the live
   set is sorted, and only when it is out of order (interleaved TLABs
   leave it so): an index permutation is sorted by the gathered [int]
   addresses, so the comparator never dereferences a record.  Addresses
   are unique, so the order is the one a sort of the whole heap gives. *)
let live_in_address_order heap =
  let objs = Heap.objects heap in
  let n = Vec.length objs in
  if n = 0 then [||]
  else begin
    let live = Array.make n (Vec.get objs 0) in
    let addrs = Array.make n 0 in
    let k = ref 0 and sorted = ref true in
    for i = 0 to n - 1 do
      let o = Vec.get objs i in
      if o.Obj_model.marked then begin
        let addr = o.Obj_model.addr in
        if !k > 0 && addrs.(!k - 1) > addr then sorted := false;
        live.(!k) <- o;
        addrs.(!k) <- addr;
        incr k
      end
    done;
    let k = !k in
    if not !sorted then begin
      let perm = Array.init k Fun.id in
      Array.stable_sort (fun i j -> Int.compare addrs.(i) addrs.(j)) perm;
      Array.map (fun i -> live.(i)) perm
    end
    else if k = n then live
    else Array.sub live 0 k
  end

(* Forward stays on the calling domain (DESIGN.md §13): the new address of
   each object is a prefix sum over all earlier live objects in address
   order (with {!Heap.place}'s alignment rounding), an inherently
   sequential dependence — the paper's real VM parallelizes it with
   per-region precomputation the simulator has no need for. *)
let run heap ~threads =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let live = live_in_address_order heap in
  let base = Heap.base heap in
  let new_top = Heap.place heap ~top:base live in
  let live_bytes = Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 live in
  let costs = Array.make (Array.length live) cost.Cost_model.forward_obj_ns in
  let phase_ns =
    Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
      ~barrier_ns:cost.Cost_model.barrier_ns costs
  in
  { phase_ns; new_top; waste_bytes = new_top - base - live_bytes; live }
