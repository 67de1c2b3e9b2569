(** Baseline byte copying between virtual ranges of one address space.

    This is the `memmove` the paper's GCs fall back to: it physically moves
    every byte (handling overlap with memmove semantics), charges
    bandwidth-model time, and optionally streams the touched lines through
    the machine's cache model for the Table III experiment. *)

open Svagc_vmem

val move :
  ?measure_core:int ->
  ?cold:bool ->
  streams:int ->
  Address_space.t ->
  src:int ->
  dst:int ->
  len:int ->
  float
(** [move ~streams as_ ~src ~dst ~len] copies [len] bytes as one of
    [streams] copy streams and returns the cost in ns.  Overlapping
    ranges behave like C [memmove].  When [measure_core] is given, source
    and destination lines are pushed through the LLC model and the page
    translations through that core's TLB.  [cold] (default
    false) charges DRAM-tier bandwidth regardless of size — the GC
    compaction case, where sources are compulsory misses; hot microbenches
    keep the size-tiered model.  It boxes its result: a loop over many
    moves calls {!move_into}. *)

val move_into :
  float array ->
  int ->
  measure_core:int option ->
  cold:bool ->
  streams:int ->
  Address_space.t ->
  src:int ->
  dst:int ->
  len:int ->
  unit
(** [move_into costs i] is {!move} writing its cost into [costs.(i)].
    A [cold] move with no [measure_core] and tracing off allocates
    nothing of its own: what it allocates is the destination buffers
    {!Phys_mem.copy} grows, and the float a pressure plane's drain
    returns. *)

val cost_ns : ?cold:bool -> Machine.t -> streams:int -> len:int -> float
(** The analytic cost of copying [len] bytes as one of [streams]
    concurrent streams ({!Cost_model.contended_bw}), without doing it. *)
