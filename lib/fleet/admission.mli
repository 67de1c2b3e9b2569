(** Fleet admission control: admit, queue or reject tenants against the
    committed-memory budget [overcommit * capacity_frames].

    A tenant commits its hard resident-frame limit on admission and
    releases it when it completes.  FIFO fairness: while the wait queue
    is non-empty, newcomers queue behind it (or are rejected once the
    queue is full) even if they would fit right now.  Rejections bump the
    machine's [admission_rejects] counter; admissions, queueings and
    rejections emit [fleet.admit] / [fleet.queue] / [fleet.reject] trace
    instants when tracing. *)

type decision =
  | Admitted
  | Queued
  | Rejected

type t

val create :
  Svagc_vmem.Machine.t ->
  capacity_frames:int ->
  overcommit:float ->
  ?queue_limit:int ->
  unit ->
  t
(** [queue_limit] (default unbounded) caps the wait queue.
    @raise Invalid_argument if [capacity_frames <= 0], [overcommit < 1]
    or [queue_limit < 0]. *)

val request : t -> tenant:int -> frames:int -> decision
(** Ask to run a tenant that will commit [frames].
    @raise Invalid_argument if [frames <= 0]. *)

val release : t -> frames:int -> unit
(** A tenant completed; return its commitment.  Follow with
    {!take_ready} to start waiters that now fit. *)

val take_ready : t -> (int * int) list
(** Pop every queued [(tenant, frames)] that fits the budget now, in FIFO
    order, committing each. *)

val budget_frames : t -> int
(** The commitment ceiling: [floor (overcommit * capacity_frames)]. *)

val committed_frames : t -> int
(** Frames currently committed by admitted tenants. *)

val admitted : t -> int
(** Tenants admitted so far (direct + via {!take_ready}). *)

val rejected : t -> int
(** Tenants turned away because the wait queue was full. *)

val queue_length : t -> int
(** Tenants currently waiting (queued, not yet started). *)
