(** Phase IV — compaction.

    Executes the move plan produced by phase II, in ascending address
    order (the sliding invariant), through a pluggable {!mover}.  The
    baseline mover copies bytes; lib/core provides the SwapVA mover
    implementing Algorithm 3's [MoveObject] and the Algorithm 4 pinned
    cycle.  Physical execution is sequential for determinism; phase time
    is the work-stealing makespan of the per-object costs, plus whatever
    fixed prologue/epilogue the mover charges (paid once, off the
    parallel part). *)

open Svagc_heap

type entry = {
  obj : Obj_model.t;
  src : int;
  dst : int;
  len : int;
}

type move_outcome = {
  cost_ns : float;
  swapped : bool;  (** true when the move went through SwapVA *)
}

type mover = {
  mover_name : string;
  prologue : Heap.t -> float;
      (** charged once per cycle before any move (Algorithm 4 lines 2-5) *)
  move_entries : Heap.t -> entry list -> move_outcome list;
      (** perform the moves in the given order *)
  epilogue : Heap.t -> float;  (** e.g. unpin *)
}

type result = {
  phase_ns : float;
  moved_objects : int;
  swapped_objects : int;
}

val memmove_mover : mover
(** The paper's baseline: every move is a cold byte copy. *)

val memmove_mover_measured : core:int -> mover
(** Same, but every copied line goes through the machine's cache model and
    the page translations through [core]'s TLB (Table III). *)

val move : Heap.t -> threads:int -> mover:mover -> entry list -> result
(** One pass through [mover]: its prologue, the entries in the given
    order, its epilogue.  [phase_ns] is the work-stealing makespan of the
    per-move costs over [threads] workers plus the fixed prologue and
    epilogue; [moved_objects] counts the entries.  Shared by {!run} and
    {!Evacuate.run}. *)

val run :
  Heap.t -> threads:int -> mover:mover -> live:Obj_model.t array -> new_top:int ->
  result
(** Moves the objects whose forwarding address differs from their
    address through {!move}, with the machine's copy streams scaled by
    [threads] for the pass; then prunes dead objects, updates the address
    index and the heap top, and clears mark bits.
    [live] must be in ascending address order: it is {!Forward.run}'s
    array, used as-is for the move plan and as the heap's new object
    vector. *)
