open Svagc_vmem
module Tracer = Svagc_trace.Tracer

type decision =
  | Admitted
  | Queued
  | Rejected

type t = {
  machine : Machine.t;
  capacity_frames : int;
  overcommit : float;
  budget_frames : int;  (* floor (overcommit * capacity_frames) *)
  queue_limit : int;
  mutable committed : int;
  mutable admitted : int;
  mutable queued_total : int;
  mutable rejected : int;
  queue : (int * int) Queue.t;  (* (tenant, frames), FIFO *)
}

let create machine ~capacity_frames ~overcommit ?(queue_limit = max_int) () =
  if capacity_frames <= 0 then
    invalid_arg "Admission.create: capacity_frames must be positive";
  if overcommit < 1.0 then
    invalid_arg "Admission.create: overcommit must be >= 1.0";
  if queue_limit < 0 then
    invalid_arg "Admission.create: queue_limit must be non-negative";
  {
    machine;
    capacity_frames;
    overcommit;
    budget_frames = int_of_float (overcommit *. float_of_int capacity_frames);
    queue_limit;
    committed = 0;
    admitted = 0;
    queued_total = 0;
    rejected = 0;
    queue = Queue.create ();
  }

let budget_frames t = t.budget_frames

let committed_frames t = t.committed

let admitted t = t.admitted

let rejected t = t.rejected

let queue_length t = Queue.length t.queue

let instant t name ~tenant ~frames =
  if Tracer.tracing () then
    Tracer.instant ~cat:"fleet"
      ~args:
        [
          ("tenant", Svagc_trace.Event.Int tenant);
          ("frames", Svagc_trace.Event.Int frames);
          ("committed", Svagc_trace.Event.Int t.committed);
        ]
      name

let admit t ~tenant ~frames =
  t.committed <- t.committed + frames;
  t.admitted <- t.admitted + 1;
  instant t "fleet.admit" ~tenant ~frames

let reject t ~tenant ~frames =
  t.rejected <- t.rejected + 1;
  let perf = t.machine.Machine.perf in
  Perf.bump perf Admission_rejects 1;
  instant t "fleet.reject" ~tenant ~frames

(* FIFO fairness: while anyone is waiting, a newcomer may not jump the
   queue even if it would fit — it queues behind them (or is rejected
   when the queue is full).  An oversized tenant that could never fit is
   rejected outright. *)
let request t ~tenant ~frames =
  if frames <= 0 then invalid_arg "Admission.request: frames must be positive";
  if frames > t.budget_frames then begin
    reject t ~tenant ~frames;
    Rejected
  end
  else if Queue.is_empty t.queue && t.committed + frames <= t.budget_frames
  then begin
    admit t ~tenant ~frames;
    Admitted
  end
  else if Queue.length t.queue < t.queue_limit then begin
    Queue.push (tenant, frames) t.queue;
    t.queued_total <- t.queued_total + 1;
    instant t "fleet.queue" ~tenant ~frames;
    Queued
  end
  else begin
    reject t ~tenant ~frames;
    Rejected
  end

let release t ~frames =
  if frames < 0 || frames > t.committed then
    invalid_arg "Admission.release: bad frame count";
  t.committed <- t.committed - frames

let take_ready t =
  let rec go acc =
    match Queue.peek_opt t.queue with
    | Some (tenant, frames) when t.committed + frames <= t.budget_frames ->
      ignore (Queue.pop t.queue);
      admit t ~tenant ~frames;
      go ((tenant, frames) :: acc)
    | Some _ | None -> List.rev acc
  in
  go []
