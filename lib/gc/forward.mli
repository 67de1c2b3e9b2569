(** Phase II — forwarding address calculation (Algorithm 3 [CalcNewAdd]).

    Slides every marked object toward the heap base in address order: the
    placement is {!Heap.place} from the heap's base, the one Algorithm 3
    rule that allocation also follows, so swappable objects stay page
    aligned and the compaction phase may exchange their pages.  The
    returned [new_top] is where the heap will end after compaction;
    [waste_bytes] is the alignment fragmentation the new layout will carry
    (the paper's "<5% of heap" claim): [new_top - base] less the live
    bytes.

    Only the live set is put in address order: one pass gathers the
    marked objects and their addresses into arrays, and only when the
    addresses are not already ascending is an index permutation sorted by
    them (the comparator reads [int]s, never object records).  The heap's
    object vector is left as it is; compaction replaces it with the
    survivors. *)

open Svagc_heap

type result = {
  phase_ns : float;
  new_top : int;
  waste_bytes : int;
  live : Obj_model.t array;
      (** marked objects in ascending address order, handed as-is to
          {!Adjust.run} and {!Compact.run} *)
}

val live_in_address_order : Heap.t -> Obj_model.t array
(** The heap's marked objects in ascending address order (also the
    evacuation order of {!Evacuate.run}). *)

val run : Heap.t -> threads:int -> result
