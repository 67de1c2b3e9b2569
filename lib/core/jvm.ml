open Svagc_vmem
open Svagc_heap
module Process = Svagc_kernel.Process
module Gc_intf = Svagc_gc.Gc_intf
module Gc_stats = Svagc_gc.Gc_stats

exception Out_of_memory

(* Each mutator thread's allocation buffer refills in chunks this large. *)
let tlab_chunk = 256 * 1024

type t = {
  name : string;
  proc : Process.t;
  heap : Heap.t;
  collector : Gc_intf.t;
  mutable tlabs : Tlab.t option array;  (* indexed by thread id *)
  app_clock : Clock.t;
  gc_clock : Clock.t;
  mutable measure_core : int option;
  mutable trace_pid : int;
}

let create machine ~name ~heap_bytes ?(threshold_pages = 10)
    ~collector_of () =
  let proc = Process.create ~name machine in
  let heap = Heap.create proc ~threshold_pages ~size_bytes:heap_bytes () in
  {
    name;
    proc;
    heap;
    collector = collector_of heap;
    tlabs = [||];
    app_clock = Clock.create ();
    gc_clock = Clock.create ();
    measure_core = None;
    trace_pid = 0;
  }

let name t = t.name
let heap t = t.heap
let proc t = t.proc
let machine t = Process.machine t.proc
let collector t = t.collector

let retire_tlabs t =
  Array.iter (function Some tlab -> Tlab.retire tlab | None -> ()) t.tlabs

(* Post-GC cost visible to the application: the mutator's working set was
   flushed from the TLBs, so the first touches after the pause re-walk. *)
let post_gc_app_penalty t =
  let machine = Process.machine t.proc in
  let tlb_entries = 64.0 in
  tlb_entries *. machine.Machine.cost.Cost_model.tlb_refill_ns

let app_ns t = Clock.now_ns t.app_clock
let gc_ns t = Clock.now_ns t.gc_clock
let total_ns t = app_ns t +. gc_ns t

let set_trace_pid t pid = t.trace_pid <- pid

module Tracer = Svagc_trace.Tracer

let run_gc t =
  retire_tlabs t;
  (* Each JVM is one trace process track positioned on its own wall-clock
     (app + GC time so far); the collector's spans and the kernel instants
     they trigger all land under this pid. *)
  if Tracer.tracing () then begin
    Tracer.set_context ~pid:t.trace_pid ~tid:0 ();
    Tracer.name_process ~pid:t.trace_pid t.name;
    Tracer.name_thread ~pid:t.trace_pid ~tid:0 "gc";
    Tracer.set_now (total_ns t)
  end;
  let cycle = Gc_intf.collect t.collector in
  Clock.advance t.gc_clock (Gc_stats.pause_ns cycle);
  (* Concurrent GC work (Shenandoah-style marking) steals app time. *)
  Clock.advance t.app_clock cycle.Gc_stats.concurrent_ns;
  Clock.advance t.app_clock (post_gc_app_penalty t);
  (* Under memory pressure: compaction may have exchanged present and
     swapped PTEs, so resynchronize the reclaim plane's per-va LRU
     tracking with the page table, and charge any reclaim cost the cycle
     accumulated outside the memmove path (fault-ins during marking,
     evictions during allocation inside the pause) to the GC clock. *)
  (match (machine t).Machine.reclaim with
  | None -> ()
  | Some r ->
    let aspace = Process.aspace t.proc in
    r.Machine.ri_adopt
      ~pt:(Address_space.page_table aspace)
      ~asid:(Address_space.asid aspace);
    Clock.advance t.gc_clock (r.Machine.ri_drain_ns ()));
  (* Phase boundary for the shadow oracle: heap audit, cycle accounting,
     TLB coherence and counter laws, plus clock-regression detection.  The
     clock keys include the pid because JVM names repeat across runs while
     each JVM's clocks restart at zero. *)
  if Svagc_check.Check.enabled () then begin
    let key tag = Printf.sprintf "%s#%d.%s" t.name (Process.pid t.proc) tag in
    Svagc_check.Check.observe_clock ~key:(key "app") (app_ns t);
    Svagc_check.Check.observe_clock ~key:(key "gc") (gc_ns t);
    Svagc_check.Check.post_gc ~label:t.name t.heap cycle
  end;
  cycle

let tlab_for t thread =
  if thread < 0 then invalid_arg "Jvm.alloc: negative thread id";
  let n = Array.length t.tlabs in
  if thread >= n then begin
    let tlabs = Array.make (max (thread + 1) (2 * n)) None in
    Array.blit t.tlabs 0 tlabs 0 n;
    t.tlabs <- tlabs
  end;
  match t.tlabs.(thread) with
  | Some tlab -> tlab
  | None ->
    let tlab = Tlab.create t.heap ~thread_id:thread ~chunk_bytes:tlab_chunk in
    t.tlabs.(thread) <- Some tlab;
    tlab

let alloc_once t ~thread ~size ~n_refs ~cls =
  match thread with
  | Some thread -> Tlab.alloc (tlab_for t thread) ~size ~n_refs ~cls
  | None -> Heap.alloc t.heap ~size ~n_refs ~cls

let alloc_cost_ns = 25.0 (* bump pointer + header initialization *)

(* Reclaim work triggered by mutator activity (mapping fresh TLAB pages
   over the limit, demand-faulting swapped pages on touch) bills the
   application clock — a real mutator stalls in the page-fault handler. *)
let drain_reclaim_app t =
  match (Process.machine t.proc).Machine.reclaim with
  | None -> ()
  | Some r -> Clock.advance t.app_clock (r.Machine.ri_drain_ns ())

let alloc ?thread t ~size ~n_refs ~cls =
  Clock.advance t.app_clock alloc_cost_ns;
  let obj =
    match alloc_once t ~thread ~size ~n_refs ~cls with
    | obj -> obj
    | exception Heap.Heap_full -> (
      ignore (run_gc t);
      match alloc_once t ~thread ~size ~n_refs ~cls with
      | obj -> obj
      | exception Heap.Heap_full -> raise Out_of_memory)
  in
  drain_reclaim_app t;
  obj

let set_measure_core t core = t.measure_core <- core

let measure_core t = t.measure_core

let charge_app_ns t ns =
  Clock.advance t.app_clock ns;
  drain_reclaim_app t

let charge_app_mem t ~bytes =
  Clock.advance t.app_clock
    (Svagc_kernel.Memmove.cost_ns ~cold:true (Process.machine t.proc)
       ~streams:(Process.co_runners t.proc) ~len:bytes);
  drain_reclaim_app t

let gc_count t = List.length (Gc_intf.cycles t.collector)
let cycles t = Gc_intf.cycles t.collector
