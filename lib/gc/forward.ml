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

(* Int scratch for the gather and the sort, grown on demand and kept per
   domain: the gather and the sort store only ints, so no store takes the
   write barrier and a collection allocates only its result. *)
type scratch = {
  mutable keys : int array;
  mutable slots : int array;
  mutable keys' : int array;
  mutable slots' : int array;
  counts : int array;
}

let digit_bits = 11

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        keys = [||];
        slots = [||];
        keys' = [||];
        slots' = [||];
        counts = Array.make (1 lsl digit_bits) 0;
      })

let reserve s n =
  if Array.length s.keys < n then begin
    s.keys <- Array.make n 0;
    s.slots <- Array.make n 0;
    s.keys' <- Array.make n 0;
    s.slots' <- Array.make n 0
  end

(* The first [k] slots of [s] ordered by their keys (each in
   [0, range]): a stable LSD radix sort, [digit_bits] per pass, each pass
   moving keys and slots from one buffer pair to the other.  Returns the
   buffer holding the sorted slots. *)
let sort_slots s k ~range =
  let mask = (1 lsl digit_bits) - 1 and counts = s.counts in
  let rec pass keys slots keys' slots' shift =
    if range lsr shift = 0 then slots
    else begin
      Array.fill counts 0 (mask + 1) 0;
      for j = 0 to k - 1 do
        let d = (keys.(j) lsr shift) land mask in
        counts.(d) <- counts.(d) + 1
      done;
      let pos = ref 0 in
      for d = 0 to mask do
        let c = counts.(d) in
        counts.(d) <- !pos;
        pos := !pos + c
      done;
      for j = 0 to k - 1 do
        let key = keys.(j) in
        let d = (key lsr shift) land mask in
        let p = counts.(d) in
        counts.(d) <- p + 1;
        keys'.(p) <- key;
        slots'.(p) <- slots.(j)
      done;
      pass keys' slots' keys slots (shift + digit_bits)
    end
  in
  pass s.keys s.slots s.keys' s.slots' 0

(* The marked objects in ascending address order.  One pass over the
   object vector gathers each marked object's address and vector slot,
   and flags every unmarked one {!Obj_model.dead}.  Only the live set is
   sorted, and only when it is out of order (interleaved TLABs leave it
   so), by a radix sort on [addr - lowest]: addresses are unique, so the
   order is the one a sort of the whole heap gives. *)
let live_in_address_order heap =
  let objs = Heap.objects heap in
  let n = Vec.length objs in
  let s = Domain.DLS.get scratch in
  reserve s n;
  let keys = s.keys and slots = s.slots in
  let k = ref 0 and sorted = ref true in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let o = Vec.get objs i in
    if o.Obj_model.marked then begin
      let addr = o.Obj_model.addr in
      if addr < !hi then sorted := false;
      if addr < !lo then lo := addr;
      if addr > !hi then hi := addr;
      keys.(!k) <- addr;
      slots.(!k) <- i;
      incr k
    end
    else o.Obj_model.forward <- Obj_model.dead
  done;
  let k = !k and lo = !lo in
  let slots =
    if !sorted then slots
    else begin
      for j = 0 to k - 1 do
        keys.(j) <- keys.(j) - lo
      done;
      sort_slots s k ~range:(!hi - lo)
    end
  in
  Array.init k (fun j -> Vec.get objs slots.(j))

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
