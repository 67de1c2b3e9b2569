(** Resilience extension — full GCs under deterministic kernel fault
    injection.

    The paper assumes SwapVA never fails; a real kernel can return EFAULT
    (racing unmap), EAGAIN (mmap-lock contention) or lose a shootdown IPI.
    This experiment sweeps a fault rate applied uniformly to all three
    injection sites and shows that the collector (a) keeps completing
    collections by degrading failed swap batches to memmove, (b) pays a
    bounded, observable overhead for it, and (c) always leaves the heap in
    an audited-correct state ({!Svagc_heap.Heap.audit}: mapping, headers,
    no overlaps).

    Rate 0 runs the exact fault-free fast path (no injector installed) and
    doubles as the overhead baseline. *)

module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table
module Config = Svagc_core.Config
module Jvm = Svagc_core.Jvm
module Fault_spec = Svagc_fault.Fault_spec
open Svagc_vmem

type point = {
  rate : float;
  gcs : int;
  gc_ns : float;
  retries : int;
  fallbacks : int;
  ipis_lost : int;
  audit : (unit, string list) result;
}

let seed = 1337

let spec_for rate =
  if rate <= 0.0 then Fault_spec.empty
  else
    match
      Fault_spec.parse
        (Printf.sprintf "pte:p=%g,lock:p=%g,ipi:p=%g" rate rate rate)
    with
    | Ok s -> s
    | Error msg -> invalid_arg ("exp resilience: bad generated spec: " ^ msg)

let measure ~steps rate =
  let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
  let config =
    { Config.default with Config.fault_spec = spec_for rate; fault_seed = seed }
  in
  let workload = Svagc_workloads.Spec.find "Sigverify" in
  let jvm =
    Runner.make_jvm ~heap_factor:1.2 ~machine
      ~collector_of:(Exp_common.collector_of ~config Exp_common.Svagc)
      workload
  in
  let rng = Svagc_util.Rng.create ~seed:42 in
  let stepper = workload.Workload.setup jvm rng in
  for _ = 1 to steps do
    stepper ()
  done;
  (* At least one compacting collection even if allocation pressure never
     triggered one, so every point exercises the swap plane. *)
  ignore (Jvm.run_gc jvm);
  let perf = machine.Machine.perf in
  {
    rate;
    gcs = Jvm.gc_count jvm;
    gc_ns = Jvm.gc_ns jvm;
    retries = Perf.get perf Swap_retries;
    fallbacks = Perf.get perf Swap_fallbacks;
    ipis_lost = Perf.get perf Ipis_lost;
    audit = Svagc_heap.Heap.audit (Jvm.heap jvm);
  }

let run ?(quick = false) () =
  Report.section
    "Resilience (extension) - GC under injected kernel faults (seed 1337)";
  let rates = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.001; 0.01; 0.05 ] in
  let steps = if quick then 30 else 60 in
  let points = List.map (measure ~steps) rates in
  let baseline_ns =
    match points with p :: _ -> p.gc_ns | [] -> 0.0
  in
  Table.print
    ~headers:
      [
        "fault rate"; "full GCs"; "GC time"; "retries"; "fallbacks";
        "IPIs lost"; "GC overhead"; "heap audit";
      ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%g" p.rate;
           string_of_int p.gcs;
           Report.ns p.gc_ns;
           string_of_int p.retries;
           string_of_int p.fallbacks;
           string_of_int p.ipis_lost;
           (if baseline_ns > 0.0 then
              Printf.sprintf "%+.1f%%"
                (100.0 *. (p.gc_ns -. baseline_ns) /. baseline_ns)
            else "n/a");
           (match p.audit with
           | Ok () -> "ok"
           | Error ps -> Printf.sprintf "FAILED (%d)" (List.length ps));
         ])
       points);
  List.iter
    (fun p ->
      match p.audit with
      | Ok () -> ()
      | Error ps ->
        Report.subsection (Printf.sprintf "audit failures at rate %g" p.rate);
        List.iter (fun m -> Printf.printf "  %s\n" m) ps)
    points;
  Report.note
    "rate 0 takes the injector-free fast path and anchors the overhead \
     column; at positive rates EFAULT/exhausted-EAGAIN batches degrade to \
     memmove (fallbacks), transient EAGAIN is retried with backoff \
     (retries), and lost IPIs are resent inside the shootdown protocol \
     (IPIs lost) - collections always complete and the post-GC heap audit \
     must stay clean"
