(** Phase III — adjusting pointers.

    Every reference slot of every live object is rewritten to the
    forwarding address its target computed in phase II.  (Roots are OCaml
    records in this simulator and follow their objects implicitly; the
    per-object cost still charges the root-set fixups a real VM performs.)

    The phase is one loop over the live objects on the calling domain
    (DESIGN.md §13); [threads] only sizes the simulated work-stealing
    schedule. *)

open Svagc_heap

val run : Heap.t -> threads:int -> live:Obj_model.t array -> float
(** [live] is {!Forward.run}'s array of marked objects in ascending
    address order, used as-is.  Returns the phase time in ns.
    @raise Invalid_argument on the first dangling or dead reference in
    address order; objects before it are already rewritten. *)
