(** Deterministic drivers over a set of simulated processes.

    A {!proc} is a self-rescheduling event source: firing it at [now]
    returns the simulated ns of its next event (or {!done_ns} to
    finish).  {!run_calendar} drives a process set over {!Calendar}:
    O(log n) per event, idle processes cost nothing between their events.

    Events fire in one total order: simulated ns, FIFO among ties by
    scheduling stamp.  The O(n)-scan reference
    [Svagc_check.Differential.run_lockstep_scan] fires the identical
    order, which [Differential.sched_identity] and [test_sched]
    enforce. *)

type proc

val done_ns : float
(** Sentinel return value from a process: no further events. *)

val proc : first_ns:float -> (now:float -> float) -> proc
(** A process whose first event is at [first_ns] (finite, [>= 0]).  Each
    firing must return [done_ns] or a time [>= now].  A [proc] array is
    single-use: build fresh processes (and fresh closure state) per
    run. *)

val first_ns : proc -> float
(** The time of the process's first event. *)

val fire : proc -> now:float -> float
(** Run the process's event at [now]; returns its next event time or
    {!done_ns}.
    @raise Invalid_argument when it reschedules itself before [now]. *)

val run_calendar : ?perf:Svagc_vmem.Perf.t -> proc array -> int
(** Fires every event in order; returns the number of events fired. *)
