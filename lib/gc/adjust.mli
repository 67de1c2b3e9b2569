(** Phase III — adjusting pointers.

    Every reference slot of every live object is rewritten to the
    forwarding address its target computed in phase II.  (Roots are OCaml
    records in this simulator and follow their objects implicitly; the
    per-object cost still charges the root-set fixups a real VM performs.)

    Host parallelism (DESIGN.md §13): the rewrites fan out over
    [threads] shards on the global [Svagc_par.Domain_pool] — each live
    object rewrites only its own refs array, and the per-object costs
    are written by absolute index into the cost vector, so the replayed
    makespan is bit-identical to the sequential implementation at any
    domain count. *)

open Svagc_heap

val run : Heap.t -> threads:int -> live:Obj_model.t array -> float
(** [live] is {!Forward.run}'s array of marked objects in ascending
    address order, used as-is.  Returns the phase time in ns. *)
