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
  Array.iter
    (fun jvm -> Svagc_kernel.Process.set_co_runners (Jvm.proc jvm) instances)
    jvms;
  { machine; jvms }

let jvms t = t.jvms

(* Every instance runs every step, so a co-run is a nested loop: step
   [s] goes to each JVM in index order before any JVM sees [s + 1].  The
   sched_* counters keep the accounting of a self-rescheduling process
   per JVM: each enters once, each step is one dispatch, and every step
   but the last re-enters it. *)
let run_round_robin t ~steps ~step =
  if steps > 0 then begin
    let perf = t.machine.Machine.perf in
    let n = Array.length t.jvms in
    Perf.bump perf Sched_scheduled n;
    for s = 0 to steps - 1 do
      for i = 0 to n - 1 do
        Perf.bump perf Sched_dispatched 1;
        step ~index:i t.jvms.(i) s;
        if s < steps - 1 then Perf.bump perf Sched_scheduled 1
      done
    done
  end

let max_total_ns t =
  Array.fold_left (fun acc jvm -> Float.max acc (Jvm.total_ns jvm)) 0.0 t.jvms

let avg_over t f =
  let sum = Array.fold_left (fun acc jvm -> acc +. f jvm) 0.0 t.jvms in
  sum /. float_of_int (Array.length t.jvms)

let avg_gc_ns t = avg_over t Jvm.gc_ns

let avg_app_ns t = avg_over t Jvm.app_ns
