(** Deterministic simulated work-stealing executor — the {e simulated-time}
    half of the repo's parallelism story ({!Domain_pool} is the
    {e host-time} half; see DESIGN.md §13).

    All parallel GC phases (mark, forward, adjust, compact — as in the
    paper's "parallelized phases, same as ParallelGC") are expressed as a
    bag of tasks with known simulated costs.  The executor replays a
    work-stealing schedule: [threads] simulated workers draw from their own
    deques and steal from the most loaded victim when empty.  Task side
    effects run exactly once, in schedule order, on the calling domain, so
    the simulation stays deterministic while the *makespan* — the number
    the experiments publish — reflects parallel execution.  Whether the
    side effects of a phase {e also} run on real domains is an orthogonal
    choice made per phase through {!Domain_pool}.

    Guarantees checked by the property tests:
    makespan >= max(total_work / threads, max_task_cost) and
    makespan <= total_work + steal overhead. *)

type stats = {
  threads : int;
  tasks : int;
  steals : int;
  total_work_ns : float;  (** sum of task costs *)
  makespan_ns : float;  (** phase wall-clock, barrier included *)
}

val run :
  threads:int ->
  steal_ns:float ->
  barrier_ns:float ->
  cost:('a -> float) ->
  execute:('a -> unit) ->
  'a array ->
  stats
(** Round-robin initial distribution, LIFO local pops, steal-from-richest.
    [execute] may mutate shared state; it is called once per task.  This
    is the reference oracle for {!makespan} ([Check] and the tests replay
    it).
    @raise Invalid_argument when [threads <= 0]. *)

val makespan :
  threads:int -> steal_ns:float -> barrier_ns:float -> float array -> float
(** The production replay every GC phase uses: the makespan of the tasks
    whose costs are the array, bit-identical to
    [(run ~cost:Fun.id ~execute:ignore costs).makespan_ns] (same
    tie-breaks, same order of float additions) but with no boxing and no
    allocation per scheduling step.
    @raise Invalid_argument when [threads <= 0]. *)
