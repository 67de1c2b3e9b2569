(** Phase IV — compaction.

    The move plan is an array of objects in ascending address order (the
    sliding invariant): each moves from its [addr] to the [forward]
    address phase II gave it, through a pluggable {!mover}.  The baseline
    mover copies bytes; lib/core provides the SwapVA mover implementing
    Algorithm 3's [MoveObject] and the Algorithm 4 pinned cycle.  Physical
    execution is sequential for determinism; phase time is the
    work-stealing makespan of the per-object costs, plus whatever fixed
    prologue/epilogue the mover charges (paid once, off the parallel
    part). *)

open Svagc_heap

type plan = {
  objects : Obj_model.t array;  (** moved from [addr] to [forward], in order *)
  streams : int;  (** concurrent copy streams: co-runners × threads *)
}

type mover = {
  mover_name : string;
  prologue : Heap.t -> float;
      (** charged once per cycle before any move (Algorithm 4 lines 2-5) *)
  move_entries : Heap.t -> plan -> float array * int;
      (** move the plan's objects; returns each move's simulated cost
          (index for index) and the number of moves that went through
          SwapVA *)
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

val move : Heap.t -> threads:int -> mover:mover -> Obj_model.t array -> result
(** One pass through [mover] at [co_runners × threads] copy streams: its
    prologue, the moves in order, its epilogue.  [phase_ns] is the
    work-stealing makespan of the mover's cost array over [threads]
    workers plus the fixed prologue and epilogue; [moved_objects] is the
    plan's length.  Shared by {!run} and {!Evacuate.run}. *)

val run :
  Heap.t -> threads:int -> mover:mover -> live:Obj_model.t array -> new_top:int ->
  result
(** Moves the objects whose forwarding address differs from their
    address through {!move}; then prunes dead objects, updates the address
    index and the heap top, and clears mark bits.
    [live] must be in ascending address order: it is {!Forward.run}'s
    array, used as-is for the move plan and as the heap's new object
    vector. *)
