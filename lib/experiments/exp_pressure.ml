(** Memory-pressure extension — full GCs under constrained residency.

    The reclaim plane ({!Svagc_reclaim.Reclaim}) caps the machine at a
    fraction of the workload's natural footprint; cold heap pages are
    evicted to the simulated swap device and fault back in on touch.  The
    sweep contrasts the two compaction engines under that pressure:

    - SwapVA exchanges page-table entries, and a swapped (non-present) PTE
      participates in the exchange as a swap-slot handle — no swap-in, no
      major fault, so compaction cost stays flat as residency shrinks.
    - memmove copies bytes, so both source and destination of every moved
      object must be resident — the collector demand-faults the swapped
      fraction back in and GC time grows as residency drops.

    Residency 1.0 attaches no reclaim plane at all and is bit-identical to
    a run on a machine that never heard of memory pressure. *)

module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table
module Jvm = Svagc_core.Jvm
open Svagc_vmem

type point = {
  kind : Exp_common.collector_kind;
  residency : float;
  limit : int; (* frames; 0 = unlimited *)
  gcs : int;
  gc_ns : float;
  major_faults : int;
  swapped_out : int;
  swapped_in : int;
  audit : (unit, string list) result;
}

let workload_name = "Sigverify"

(* One full run of the workload; [limit_frames = Some n] attaches the
   reclaim plane before the heap maps its first page so every heap page is
   LRU-tracked from birth. *)
let run_once ~steps ~limit_frames kind =
  let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
  (match limit_frames with
  | Some limit_frames ->
    ignore (Svagc_reclaim.Reclaim.attach machine ~limit_frames ())
  | None -> ());
  let workload = Svagc_workloads.Spec.find workload_name in
  let jvm =
    Runner.make_jvm ~heap_factor:1.2 ~machine
      ~collector_of:(Exp_common.collector_of kind)
      workload
  in
  let rng = Svagc_util.Rng.create ~seed:42 in
  let stepper = workload.Workload.setup jvm rng in
  let peak = ref (Phys_mem.frames_in_use machine.Machine.phys) in
  let sample () =
    let n = Phys_mem.frames_in_use machine.Machine.phys in
    if n > !peak then peak := n
  in
  for _ = 1 to steps do
    stepper ();
    sample ()
  done;
  (* At least one compacting collection even if allocation pressure never
     triggered one, so every point exercises the swap plane. *)
  ignore (Jvm.run_gc jvm);
  sample ();
  (jvm, machine, !peak)

let measure ~steps ~peak kind residency =
  let limit_frames =
    if residency >= 1.0 then None
    else Some (max 1 (int_of_float (ceil (residency *. float_of_int peak))))
  in
  let jvm, machine, _ = run_once ~steps ~limit_frames kind in
  let perf = machine.Machine.perf in
  {
    kind;
    residency;
    limit = (match limit_frames with Some n -> n | None -> 0);
    gcs = Jvm.gc_count jvm;
    gc_ns = Jvm.gc_ns jvm;
    major_faults = Perf.get perf Major_faults;
    swapped_out = Perf.get perf Pages_swapped_out;
    swapped_in = Perf.get perf Pages_swapped_in;
    audit = Svagc_heap.Heap.audit (Jvm.heap jvm);
  }

let sweep ~quick =
  let residencies =
    if quick then [ 0.5; 1.0 ] else [ 0.3; 0.5; 0.7; 0.85; 1.0 ]
  in
  let steps = if quick then 30 else 60 in
  let kinds = [ Exp_common.Svagc; Exp_common.Lisp2_memmove ] in
  List.concat_map
    (fun kind ->
      (* Pass 1: unlimited run to learn this collector's natural
         footprint; the sweep caps residency relative to that peak. *)
      let _, _, peak = run_once ~steps ~limit_frames:None kind in
      List.map (measure ~steps ~peak kind) residencies)
    kinds

let run ?(quick = false) () =
  Report.section
    "Memory pressure (extension) - compaction cost vs residency ratio";
  let points = sweep ~quick in
  let baseline_for kind =
    List.find_opt (fun p -> p.kind == kind && p.residency >= 1.0) points
  in
  Table.print
    ~headers:
      [
        "collector"; "residency"; "limit"; "full GCs"; "GC time";
        "GC overhead"; "major faults"; "swapped out"; "swapped in";
        "heap audit";
      ]
    (List.map
       (fun p ->
         let base_ns =
           match baseline_for p.kind with Some b -> b.gc_ns | None -> 0.0
         in
         [
           Exp_common.collector_name p.kind;
           Printf.sprintf "%g" p.residency;
           (if p.limit = 0 then "-" else Printf.sprintf "%df" p.limit);
           string_of_int p.gcs;
           Report.ns p.gc_ns;
           (if base_ns > 0.0 then
              Printf.sprintf "%+.1f%%"
                (100.0 *. (p.gc_ns -. base_ns) /. base_ns)
            else "n/a");
           string_of_int p.major_faults;
           string_of_int p.swapped_out;
           string_of_int p.swapped_in;
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
        Report.subsection
          (Printf.sprintf "audit failures: %s at residency %g"
             (Exp_common.collector_name p.kind)
             p.residency);
        List.iter (fun m -> Printf.printf "  %s\n" m) ps)
    points;
  Report.note
    "residency r caps resident frames at r x the collector's unlimited \
     peak; 1.0 attaches no reclaim plane and anchors each overhead \
     column. SwapVA swaps non-present PTEs as swap-slot handles, so its \
     compaction cost stays near the baseline at every residency, while \
     the memmove collector must demand-fault both sides of every copy - \
     its major faults and GC time grow as the swapped fraction grows"
