open Svagc_vmem

(* Inlined into [move_into], whose float arithmetic then stays unboxed. *)
let[@inline] copy_ns machine ~cold ~streams ~len =
  let cost = machine.Machine.cost in
  let bw =
    if cold then cost.dram_copy_bw else Cost_model.memmove_bw cost ~bytes_len:len
  in
  float_of_int len /. Cost_model.contended_bw cost ~streams ~bw

let cost_ns ?(cold = false) machine ~streams ~len =
  if len <= 0 then 0.0 else copy_ns machine ~cold ~streams ~len

let move_into costs i ~measure_core ~cold ~streams aspace ~src ~dst ~len =
  if len < 0 then invalid_arg "Memmove.move: negative length";
  let machine = Address_space.machine aspace in
  if len = 0 then costs.(i) <- 0.0
  else begin
    Address_space.copy aspace ~src ~dst ~len;
    Perf.bump machine.Machine.perf Memmove_calls 1;
    Perf.bump machine.Machine.perf Bytes_copied len;
    (match measure_core with
    | None -> ()
    | Some core ->
      Address_space.touch_range aspace ~core ~va:src ~len;
      Address_space.touch_range aspace ~core ~va:dst ~len);
    (* Under memory pressure the reads/writes/touches above demand-fault
       swapped pages back in; fold that accumulated reclaim cost into the
       copy cost so the caller's clock pays for the faults the copy caused
       (SwapVA never pays this: swapping two non-present PTEs just
       exchanges slots). *)
    let reclaim_ns =
      match machine.Machine.reclaim with
      | None -> 0.0
      | Some r -> r.Machine.ri_drain_ns ()
    in
    costs.(i) <- copy_ns machine ~cold ~streams ~len +. reclaim_ns;
    if Svagc_trace.Tracer.tracing () then
      Svagc_trace.Tracer.instant ~cat:"kernel" ~advance_ns:costs.(i)
        ~args:[ ("len", Svagc_trace.Event.Int len) ]
        "memmove"
  end

let move ?measure_core ?(cold = false) ~streams aspace ~src ~dst ~len =
  let costs = [| 0.0 |] in
  move_into costs 0 ~measure_core ~cold ~streams aspace ~src ~dst ~len;
  costs.(0)
