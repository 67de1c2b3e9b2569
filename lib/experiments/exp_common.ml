open Svagc_vmem
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload

type collector_kind =
  | Svagc
  | Lisp2_memmove
  | Parallelgc
  | Shenandoah

let collector_name = function
  | Svagc -> "SVAGC"
  | Lisp2_memmove -> "-SwapVA"
  | Parallelgc -> "ParallelGC"
  | Shenandoah -> "Shenandoah"

let collector_of ?(config = Svagc_core.Config.default) kind heap =
  match kind with
  | Svagc -> Svagc_core.Svagc.collector ~config heap
  | Lisp2_memmove -> Svagc_core.Svagc.baseline_collector ~threads:4 heap
  | Parallelgc -> Svagc_gc.Parallel_gc.collector ~threads:4 heap
  | Shenandoah -> Svagc_gc.Shenandoah.collector ~threads:4 heap

let fresh_machine ?ncores ?(phys_mib = 1024) cost =
  Machine.create ?ncores ~phys_mib cost

let suite ~quick =
  if quick then
    [
      Svagc_workloads.Sparse.quarter;
      Svagc_workloads.Sparse.large;
      Svagc_workloads.Fft.large;
      Svagc_workloads.Sigverify.default;
      Svagc_workloads.Crypto_aes.workload;
    ]
  else Svagc_workloads.Spec.suite

type key = string * collector_kind * int * bool

let cache : (key, Runner.result) Hashtbl.t = Hashtbl.create 64

let suite_run ~quick kind ~heap_factor workload =
  let key =
    (workload.Workload.name, kind, int_of_float (heap_factor *. 100.0), quick)
  in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let machine = fresh_machine Cost_model.xeon_6130 in
    let steps = if quick then 40 else 60 in
    let min_gcs = if quick then 3 else 5 in
    let r =
      Runner.run ~heap_factor ~steps ~min_gcs ~machine
        ~collector_of:(collector_of kind) workload
    in
    Hashtbl.replace cache key r;
    r

let baseline_rows ~quick ~heap_factor =
  List.map
    (fun w ->
      let sva = suite_run ~quick Svagc ~heap_factor w in
      let par = suite_run ~quick Parallelgc ~heap_factor w in
      let shen = suite_run ~quick Shenandoah ~heap_factor w in
      (w.Workload.name, shen, par, sva))
    (suite ~quick)

let geomean_ratio pairs ~metric =
  Svagc_util.Num_util.geomean
    (List.map
       (fun (baseline, subject) ->
         let b = metric baseline and s = metric subject in
         if s <= 0.0 then 1.0 else b /. s)
       pairs)
