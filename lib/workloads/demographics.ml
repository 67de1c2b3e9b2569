module Dist = Svagc_util.Dist
module Rng = Svagc_util.Rng
module Jvm = Svagc_core.Jvm
module Heap = Svagc_heap.Heap

type profile = {
  name : string;
  suite : string;
  paper_threads : int;
  paper_heap_gib : string;
  sim_threads : int;
  size_dist : Dist.t;
  n_refs : int;
  slots : int;
  churn_per_step : int;
  compute_ns_per_step : float;
  mem_bytes_per_step : int;
  payload_stamp_bytes : int;
  description : string;
}

let min_heap_bytes p =
  let mean = Dist.mean p.size_dist in
  (* Live set + one step of floating garbage + TLAB slack.  Large objects
     also carry up to a page of alignment waste each, and neighbour links
     keep a replaced object alive until its referrer is itself replaced —
     on average roughly half an extra working set. *)
  let align_slack =
    if mean >= 10.0 *. 4096.0 then float_of_int p.slots *. 4096.0 else 0.0
  in
  let live = float_of_int p.slots *. mean *. 1.25 in
  let churn = float_of_int p.churn_per_step *. mean *. 5.0 in
  int_of_float ((live +. churn +. align_slack) *. 1.10) + (1 lsl 20)

let alloc_object jvm rng p ~thread =
  let size =
    max Svagc_heap.Obj_model.header_bytes (Dist.sample rng p.size_dist)
  in
  Jvm.alloc ~thread jvm ~size ~n_refs:p.n_refs ~cls:0

let stamp jvm rng p obj =
  let heap = Jvm.heap jvm in
  let payload = obj.Svagc_heap.Obj_model.size - Svagc_heap.Obj_model.header_bytes in
  let len = min p.payload_stamp_bytes payload in
  if len > 0 then Heap.fill_payload heap obj ~off:0 ~len (Char.chr (Rng.int rng 256))

(* Marks an empty slot: [slots] holds records, not [option] boxes, so
   filling a slot allocates nothing. *)
let empty = Svagc_heap.Obj_model.null

let link heap p slots ~at =
  (* Neighbour links keep the mark/adjust phases honest without turning
     the working set into one giant clique.  The right neighbour is
     re-pointed at the fresh object so a replaced object loses its last
     referrer immediately — otherwise dead-root chains accumulate and the
     live set drifts above the working set. *)
  if p.n_refs > 0 then begin
    let n = Array.length slots in
    let obj = slots.(at) and target = slots.((at + n - 1) mod n) in
    if obj != empty && target != empty && target != obj then
      Heap.set_ref heap obj ~slot:0 (Some target);
    let right = slots.((at + 1) mod n) and fresh = slots.(at) in
    if right != empty && fresh != empty && right != fresh then
      Heap.set_ref heap right ~slot:0 (Some fresh)
  end

let workload p =
  let setup jvm rng =
    let heap = Jvm.heap jvm in
    let slots = Array.make p.slots empty in
    let place idx ~thread =
      let old = slots.(idx) in
      if old != empty then begin
        Heap.remove_root heap old;
        slots.(idx) <- empty
      end;
      let obj = alloc_object jvm rng p ~thread in
      Heap.add_root heap obj;
      stamp jvm rng p obj;
      (match Jvm.measure_core jvm with
      | Some core ->
        (* The application initializes what it allocates and then computes
           over it (several passes over the same pages — mutators have TLB
           locality that the GC's one-shot streams lack): this is the
           mutator's share of the Table III access stream. *)
        for _ = 1 to 3 do
          Heap.touch_object heap obj ~core ~max_bytes:16_384
        done;
        (* ...and streams over a random cold part of the working set once
           (scans have no cache reuse, which keeps the LLC miss rate high
           in both configurations, as the paper's Table III shows). *)
        let other = slots.(Rng.int rng p.slots) in
        if other != empty then Heap.touch_object heap other ~core ~max_bytes:16_384;
        let other = slots.((idx + 1) mod p.slots) in
        if other != empty then Heap.touch_object heap other ~core ~max_bytes:8_192
      | None -> ());
      slots.(idx) <- obj;
      link heap p slots ~at:idx
    in
    (* Populate the initial working set. *)
    Array.iteri (fun i _ -> place i ~thread:(i mod p.sim_threads)) slots;
    let step_no = ref 0 in
    fun () ->
      incr step_no;
      for k = 0 to p.churn_per_step - 1 do
        let idx = Rng.int rng p.slots in
        place idx ~thread:((!step_no + k) mod p.sim_threads)
      done;
      Jvm.charge_app_ns jvm p.compute_ns_per_step;
      if p.mem_bytes_per_step > 0 then
        Jvm.charge_app_mem jvm ~bytes:p.mem_bytes_per_step
  in
  {
    Workload.name = p.name;
    suite = p.suite;
    paper_threads = p.paper_threads;
    paper_heap_gib = p.paper_heap_gib;
    sim_threads = p.sim_threads;
    min_heap_bytes = min_heap_bytes p;
    description = p.description;
    setup;
  }
