(** Shared plumbing for the figure/table reproductions: collector
    constructors, memoized suite runs (several figures reuse the same
    benchmark x collector x heap-factor grid), and geometric means. *)

type collector_kind =
  | Svagc
  | Lisp2_memmove  (** the paper's "-SwapVA" baseline *)
  | Parallelgc
  | Shenandoah

val collector_name : collector_kind -> string

val collector_of :
  ?config:Svagc_core.Config.t ->
  collector_kind ->
  Svagc_heap.Heap.t ->
  Svagc_gc.Gc_intf.t
(** [config] customizes the SVAGC collector only (default
    [Config.default]); the other collectors ignore it. *)

val fresh_machine : ?ncores:int -> ?phys_mib:int -> Svagc_vmem.Cost_model.t ->
  Svagc_vmem.Machine.t

val suite_run :
  quick:bool ->
  collector_kind ->
  heap_factor:float ->
  Svagc_workloads.Workload.t ->
  Svagc_workloads.Runner.result
(** Memoized on (workload name, collector, heap factor, quick). *)

val suite : quick:bool -> Svagc_workloads.Workload.t list
(** The Fig. 11 / Table III benchmark list; [quick] trims it to a
    representative subset so `dune runtest` stays fast. *)

val baseline_rows :
  quick:bool ->
  heap_factor:float ->
  (string
  * Svagc_workloads.Runner.result
  * Svagc_workloads.Runner.result
  * Svagc_workloads.Runner.result)
  list
(** One [(benchmark, shenandoah, parallelgc, svagc)] row per {!suite}
    benchmark, from {!suite_run} — the grid of Figs. 12, 13 and 16. *)

val geomean_ratio :
  (Svagc_workloads.Runner.result * Svagc_workloads.Runner.result) list ->
  metric:(Svagc_workloads.Runner.result -> float) ->
  float
(** Geometric mean over pairs of [metric baseline / metric subject]. *)
