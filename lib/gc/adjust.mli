(** Phase III — adjusting pointers.

    A real VM rewrites every reference slot of every live object to the
    forwarding address its target computed in phase II.  Here a slot holds
    its target's record ({!Obj_model}), so references and roots follow
    their objects when the commit moves [addr], and this phase only checks
    that every target is live and charges the rewrites: per object,
    [adjust_obj_ns] plus [ref_scan_ns] per slot.

    The phase is one loop over the live objects on the calling domain
    (DESIGN.md §13); [threads] only sizes the simulated work-stealing
    schedule. *)

open Svagc_heap

val run : Heap.t -> threads:int -> live:Obj_model.t array -> float
(** [live] is {!Forward.run}'s array of marked objects in ascending
    address order, used as-is.  Returns the phase time in ns.
    @raise Invalid_argument on the first reference to an unmarked object
    (dead in this collection or dropped by an earlier one), in address
    order. *)
