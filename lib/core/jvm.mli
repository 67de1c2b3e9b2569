(** A simulated JVM instance: process + heap + collector + clocks.

    The mutator allocates through {!alloc} (optionally via per-thread
    TLABs); when the heap fills, a full GC runs automatically, its pause is
    charged to the GC clock, and the allocation is retried.  Application
    compute/memory time is charged explicitly by the workloads. *)

open Svagc_vmem
open Svagc_heap

exception Out_of_memory

type t

val create :
  Machine.t ->
  name:string ->
  heap_bytes:int ->
  ?threshold_pages:int ->
  collector_of:(Heap.t -> Svagc_gc.Gc_intf.t) ->
  unit ->
  t

val name : t -> string

val heap : t -> Heap.t

val proc : t -> Svagc_kernel.Process.t

val machine : t -> Machine.t

val collector : t -> Svagc_gc.Gc_intf.t

val alloc_cost_ns : float
(** App-clock cost charged per {!alloc} (bump pointer + header init);
    exposed so drivers measuring allocation stalls can subtract the
    nominal cost from the observed app-clock delta. *)

val alloc : ?thread:int -> t -> size:int -> n_refs:int -> cls:int -> Obj_model.t
(** TLAB allocation when [thread] (a non-negative thread id; the TLAB
    table is an array indexed by it) is given, shared-space otherwise.
    Runs a GC and retries on exhaustion.  @raise Out_of_memory when even
    the post-GC heap cannot fit the request. *)

val run_gc : t -> Svagc_gc.Gc_stats.cycle
(** Force a full collection (retires all TLABs first). *)

val set_trace_pid : t -> int -> unit
(** Which trace process track this instance records GC activity under
    (default 0; {!Multi_jvm} assigns one pid per instance).  Deliberately
    decoupled from the simulated kernel pid, which is allocated from a
    process-global counter and therefore not stable across runs — trace
    determinism requires caller-chosen ids. *)

val set_measure_core : t -> int option -> unit
(** Enable the measured access path (cache + TLB models) for this
    instance's workload and byte-copy GC traffic (Table III). *)

val measure_core : t -> int option

val charge_app_ns : t -> float -> unit
(** Pure compute time. *)

val charge_app_mem : t -> bytes:int -> unit
(** Application memory traffic: a cold copy of [bytes] as one of the
    process's co-runner streams ([Memmove.cost_ns ~cold:true]). *)

val app_ns : t -> float

val gc_ns : t -> float
(** Total stop-the-world time so far. *)

val total_ns : t -> float
(** [app_ns + gc_ns] — the run's wall-clock. *)

val gc_count : t -> int

val cycles : t -> Svagc_gc.Gc_stats.cycle list
