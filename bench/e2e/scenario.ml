(* The four workloads, run through the production entry points.

   A batch is one fixed-size run: [Fleet.run] over a whole fleet, or
   [Runner.run] over every Fig. 11 suite benchmark.  The untraced batch
   hands those entry points [Exp_common.collector_of] unchanged.  The
   traced batch hands them a collector built the same way from the public
   pieces ([Lisp2.config], [Move_object.mover] / [Compact.memmove_mover],
   [Gc_intf.make]) with a host-time section around each call, and wraps the
   machine's reclaim closures once per machine.  Both must produce the same
   [digest]: the sections observe the simulation and never steer it. *)

open Svagc_vmem
module Fleet = Svagc_fleet.Fleet
module Runner = Svagc_workloads.Runner
module Exp_common = Svagc_experiments.Exp_common
module Histogram = Svagc_util.Histogram
module Heap = Svagc_heap.Heap
module Lisp2 = Svagc_gc.Lisp2
module Compact = Svagc_gc.Compact
module Gc_intf = Svagc_gc.Gc_intf
module Gc_stats = Svagc_gc.Gc_stats
module Config = Svagc_core.Config

type family = Fleet_family | Suite_family

type t = {
  name : string;
  why : string;
  family : family;
  collector : Exp_common.collector_kind;
}

let all =
  [
    {
      name = "fleet-swapva";
      why =
        "the paper's setting: an overcommitted fleet under SVAGC; host time \
         goes to reclaim and the fleet driver, SwapVA keeps cold pages swapped";
      family = Fleet_family;
      collector = Exp_common.Svagc;
    };
    {
      name = "fleet-memmove";
      why =
        "same fleet with byte-copy compaction, which faults every cold page \
         back in; bypasses SwapVA, so SwapVA changes must not move it";
      family = Fleet_family;
      collector = Exp_common.Lisp2_memmove;
    };
    {
      name = "suite-swapva";
      why =
        "the 14 Fig. 11 benchmarks under SVAGC, no memory limit: GC phases \
         and the SwapVA mover, no reclaim, so reclaim changes must not move it";
      family = Suite_family;
      collector = Exp_common.Svagc;
    };
    {
      name = "suite-memmove";
      why =
        "the same suite with byte-copy compaction: host memmove through the \
         simulated frames dominates; the mirror of suite-swapva";
      family = Suite_family;
      collector = Exp_common.Lisp2_memmove;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [Full] is what the benchmark measures; [Toy] is the reduced size the
   correctness gate replays under the shadow oracle, and the size the
   runtest smoke rule runs. *)
type size = Full | Toy

let fleet_config size ~seed =
  let tenants, surge, steps =
    match size with Full -> (500, 25, 10) | Toy -> (24, 2, 4)
  in
  (* The queue holds every surge tenant, so nobody is refused: each
     admission request is an operation that must succeed. *)
  { Fleet.default with tenants; surge; queue_limit = surge; steps; seed }

let suite_workloads = function
  | Full -> Svagc_workloads.Spec.suite
  | Toy -> [ Svagc_workloads.Sparse.quarter; Svagc_workloads.Fft.sixteenth ]

let suite_steps = function Full -> 60 | Toy -> 2
let suite_min_gcs = function Full -> 8 | Toy -> 1

type outcome = {
  attempted : int;
  failed : int;
  steps : int;  (** simulated mutator steps *)
  pauses : Histogram.t;  (** simulated GC pauses, ns *)
  stalls : Histogram.t;  (** simulated allocation stalls, ns (fleet only) *)
  total_ns : float;  (** simulated makespan *)
  perf : (string * int) list;  (** summed over the batch's machines *)
  digest : string;
}

let counter perf name = Option.value ~default:0 (List.assoc_opt name perf)

let add_perf acc perf =
  if acc = [] then perf
  else List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc perf

(* Every sample in rank order: quantile i/n is the i-th smallest. *)
let sorted_samples h =
  let n = Histogram.count h in
  List.init n (fun i ->
      Histogram.quantile h (float_of_int (i + 1) /. float_of_int n))

let digest ~pauses ~stalls ~perf ~total_ns =
  let b = Buffer.create 4096 in
  let add_h h =
    List.iter (fun x -> Printf.bprintf b "%h;" x) (sorted_samples h);
    Buffer.add_char b '|'
  in
  add_h pauses;
  add_h stalls;
  List.iter (fun (n, v) -> Printf.bprintf b "%s=%d;" n v) perf;
  Printf.bprintf b "%h" total_ns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_fleet size ~seed ~collector_of =
  let config = fleet_config size ~seed in
  let attempted = config.Fleet.tenants + config.Fleet.surge in
  let r = Fleet.run ~collector_of config in
  let perf = Perf.to_assoc r.Fleet.perf in
  (* A refused tenant never runs, so this counts refusals too. *)
  let never_ran =
    Array.fold_left
      (fun n s -> if s.Fleet.t_wave < 0 then n + 1 else n)
      0 r.Fleet.stats
  in
  {
    attempted;
    failed = never_ran;
    steps = counter perf "sched_dispatched";
    pauses = r.Fleet.pauses;
    stalls = r.Fleet.stalls;
    total_ns = r.Fleet.total_ns;
    perf;
    digest =
      digest ~pauses:r.Fleet.pauses ~stalls:r.Fleet.stalls ~perf
        ~total_ns:r.Fleet.total_ns;
  }

let run_suite size ~seed ~collector_of =
  let pauses = Histogram.create () and stalls = Histogram.create () in
  let failed = ref 0 and steps = ref 0 and total_ns = ref 0.0 in
  let perf = ref [] in
  let workloads = suite_workloads size in
  List.iter
    (fun w ->
      let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
      match
        Runner.run ~heap_factor:1.2 ~steps:(suite_steps size)
          ~min_gcs:(suite_min_gcs size) ~seed ~machine ~collector_of w
      with
      | r ->
        List.iter
          (fun c -> Histogram.add pauses (Gc_stats.pause_ns c))
          r.Runner.cycles;
        steps := !steps + r.Runner.steps;
        total_ns := !total_ns +. r.Runner.total_ns;
        perf := add_perf !perf (Perf.to_assoc machine.Machine.perf)
      | exception e ->
        Printf.eprintf "%s: %s\n%!" w.Svagc_workloads.Workload.name
          (Printexc.to_string e);
        incr failed)
    workloads;
  {
    attempted = List.length workloads;
    failed = !failed;
    steps = !steps;
    pauses;
    stalls;
    total_ns = !total_ns;
    perf = !perf;
    digest = digest ~pauses ~stalls ~perf:!perf ~total_ns:!total_ns;
  }

let run w size ~seed ~collector_of =
  match w.family with
  | Fleet_family -> run_fleet size ~seed ~collector_of
  | Suite_family -> run_suite size ~seed ~collector_of

(* The highest percentile with at least ten samples beyond it: p99 on the
   fleets (2,551 pauses), p90 on the suites (112). *)
let tail_quantile w = match w.family with Fleet_family -> 0.99 | Suite_family -> 0.90

(* --- The traced collector --------------------------------------------- *)

let s_collect = Prof.section "gc.collect"
let s_prologue = Prof.section "gc.prologue"
let s_move = Prof.section "gc.move"
let s_epilogue = Prof.section "gc.epilogue"
let s_fault_in = Prof.section "reclaim.fault_in"
let s_mapped = Prof.section "reclaim.page_mapped"
let s_touched = Prof.section "reclaim.page_touched"
let s_adopt = Prof.section "reclaim.adopt"
let s_drain = Prof.section "reclaim.drain"
let s_unmapped = Prof.section "reclaim.page_unmapped"
let s_poll = Prof.section "trace.poll"

let wrap_mover (m : Compact.mover) =
  {
    m with
    Compact.prologue = (fun h -> Prof.time s_prologue (fun () -> m.prologue h));
    move_entries =
      (fun h es -> Prof.time s_move (fun () -> m.Compact.move_entries h es));
    epilogue = (fun h -> Prof.time s_epilogue (fun () -> m.epilogue h));
  }

(* The hot closures are wrapped without [Prof.time] so that timing a
   call allocates nothing of its own. *)
let wrap_reclaim (r : Machine.reclaim_iface) =
  {
    r with
    Machine.ri_page_mapped =
      (fun ~pt ~asid ~va ->
        Prof.enter s_mapped;
        match r.Machine.ri_page_mapped ~pt ~asid ~va with
        | () -> Prof.leave ()
        | exception e ->
          Prof.leave ();
          raise e);
    ri_page_unmapped =
      (fun ~asid ~va ~pte ->
        Prof.enter s_unmapped;
        match r.Machine.ri_page_unmapped ~asid ~va ~pte with
        | () -> Prof.leave ()
        | exception e ->
          Prof.leave ();
          raise e);
    ri_page_touched =
      (fun ~asid ~va ->
        Prof.enter s_touched;
        match r.Machine.ri_page_touched ~asid ~va with
        | () -> Prof.leave ()
        | exception e ->
          Prof.leave ();
          raise e);
    ri_fault_in =
      (fun ~pt ~asid ~va ->
        Prof.enter s_fault_in;
        match r.Machine.ri_fault_in ~pt ~asid ~va with
        | () -> Prof.leave ()
        | exception e ->
          Prof.leave ();
          raise e);
    ri_adopt =
      (fun ~pt ~asid ->
        Prof.enter s_adopt;
        match r.Machine.ri_adopt ~pt ~asid with
        | () -> Prof.leave ()
        | exception e ->
          Prof.leave ();
          raise e);
    ri_drain_ns =
      (fun () ->
        Prof.enter s_drain;
        match r.Machine.ri_drain_ns () with
        | v ->
          Prof.leave ();
          v
        | exception e ->
          Prof.leave ();
          raise e);
  }

(* Returns the collector factory and the list the traced cycles land in.
   The reclaim plane is attached before the first JVM of a machine is
   built, so the factory wraps it the first time it sees that machine's
   plane. *)
let traced_collector_of kind =
  let cycles = ref [] in
  let wrapped = ref None in
  let collector_of heap =
    let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
    (match (machine.Machine.reclaim, !wrapped) with
    | Some r, Some w when r == w -> ()
    | Some r, _ ->
      let w = wrap_reclaim r in
      machine.Machine.reclaim <- Some w;
      wrapped := Some w
    | None, _ -> ());
    let cfg =
      match kind with
      | Exp_common.Svagc ->
        let config = Config.default in
        Lisp2.config ~label:"svagc" ~threads:config.Config.gc_threads
          ~mover:(wrap_mover (Svagc_core.Move_object.mover config))
          ()
      | Exp_common.Lisp2_memmove ->
        Lisp2.config ~label:"lisp2-memmove" ~threads:4
          ~mover:(wrap_mover Compact.memmove_mover) ()
      | Exp_common.Parallelgc | Exp_common.Shenandoah ->
        invalid_arg "traced_collector_of: collector not benchmarked"
    in
    Gc_intf.make ~name:cfg.Lisp2.label heap (fun () ->
        let c = Prof.time s_collect (fun () -> Lisp2.collect cfg heap) in
        cycles := c :: !cycles;
        Prof.time s_poll Prof.Host_gc.poll;
        c)
  in
  (collector_of, cycles)
