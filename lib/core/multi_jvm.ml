open Svagc_vmem

type t = {
  machine : Machine.t;
  jvms : Jvm.t array;
}

let create machine ~instances ~spawn =
  if instances <= 0 then invalid_arg "Multi_jvm.create: need at least one instance";
  let jvms = Array.init instances (fun index -> spawn ~index machine) in
  (* One trace track per co-running instance (Fig. 2 / Fig. 14 views). *)
  Array.iteri (fun index jvm -> Jvm.set_trace_pid jvm index) jvms;
  machine.Machine.copy_streams <- instances;
  { machine; jvms }

let jvms t = t.jvms

(* Event-driven core: each JVM is a self-rescheduling process on the
   calendar; step [s] is its event at simulated ns [s].  All processes
   enter at ns 0 in index order and re-enter in firing order, so the
   (ns, seq) FIFO heap replays the nested lockstep loop's interleaving
   exactly (see Svagc_sched.Engine) while idle tenants cost no host
   work. *)
let run_round_robin_indexed t ~steps ~step =
  if steps > 0 then begin
    let procs =
      Array.mapi
        (fun i jvm ->
          Svagc_sched.Engine.proc ~first_ns:0.0 (fun ~now ->
              let s = int_of_float now in
              step ~index:i jvm s;
              let s' = s + 1 in
              if s' < steps then float_of_int s'
              else Svagc_sched.Engine.done_ns))
        t.jvms
    in
    ignore
      (Svagc_sched.Engine.run_calendar ~perf:t.machine.Machine.perf procs)
  end

let run_round_robin t ~steps ~step =
  run_round_robin_indexed t ~steps ~step:(fun ~index:_ jvm s -> step jvm s)

let max_total_ns t =
  Array.fold_left (fun acc jvm -> Float.max acc (Jvm.total_ns jvm)) 0.0 t.jvms

let avg_over t f =
  let sum = Array.fold_left (fun acc jvm -> acc +. f jvm) 0.0 t.jvms in
  sum /. float_of_int (Array.length t.jvms)

let avg_gc_ns t = avg_over t Jvm.gc_ns

let avg_app_ns t = avg_over t Jvm.app_ns

let release t = t.machine.Machine.copy_streams <- 1
