(** The trace recorder: spans and instant events over simulated time.

    One tracer at a time can be installed as the process-wide current
    recorder ({!start} / {!stop}).  Every recording entry point is a no-op
    while no tracer is installed, so permanently-instrumented code paths
    (GC phases, syscalls, shootdowns) cost one [ref] read when tracing is
    off; hot call sites additionally guard with {!tracing} so argument
    lists are not even allocated.

    Time: the tracer keeps a cursor in simulated nanoseconds.  Span ends
    supply the span's duration (the simulator computes costs rather than
    observing wall time) and move the cursor to [begin + dur]; instants may
    advance the cursor by their own cost so that the events of a compaction
    spread through its span.  Per-JVM drivers re-seed the cursor from their
    own clocks, giving each pid an independent timeline.

    Counters: when a counter source is installed (e.g. the machine's
    {e perf} table), every span snapshot-diffs it and attaches the non-zero
    deltas to the closed span as ["perf.<counter>"] arguments. *)

type t

(* --- lifecycle --- *)

val start : ?capacity:int -> unit -> t
(** Create a tracer with a bounded ring of [capacity] events (default
    65536) and install it as current, replacing any previous one. *)

val stop : unit -> t option
(** Uninstall and return the current tracer, if any. *)

val tracing : unit -> bool

val current : unit -> t option

val with_tracer : ?capacity:int -> (unit -> 'a) -> 'a * t
(** [with_tracer f] runs [f] under a fresh tracer and returns its result
    together with the stopped tracer (also stopped on exceptions). *)

(* --- context --- *)

val set_counter_source : (unit -> (string * int) list) -> unit

val set_now : float -> unit
(** Re-seed the time cursor (simulated ns). *)

val now : unit -> float
(** [0.] when disabled. *)

val advance : float -> unit

val set_context : ?pid:int -> ?tid:int -> unit -> unit
(** Select the track for subsequent events; omitted coordinates keep
    their current value. *)

val name_process : pid:int -> string -> unit
(** Label a pid track (first registration wins). *)

val name_thread : pid:int -> tid:int -> string -> unit

(* --- recording --- *)

val span_begin :
  ?cat:string -> ?args:(string * Event.value) list -> string -> unit
(** Open a span at the cursor on the current track and snapshot the
    counter source.  Nothing is recorded until the matching {!span_end}. *)

val span_end : ?args:(string * Event.value) list -> dur_ns:float -> unit -> unit
(** Close the innermost open span: records one completed-span event with
    the begin args, these end args and the counter deltas, then sets the
    cursor to [begin + dur_ns].  Ignored when no span is open. *)

val span_abort : unit -> unit
(** Discard the innermost open span without recording (exception paths). *)

val instant :
  ?cat:string ->
  ?tid:int ->
  ?advance_ns:float ->
  ?args:(string * Event.value) list ->
  string ->
  unit
(** Record a point event at the cursor.  [tid] overrides the track for
    this event only (per-core IPIs); [advance_ns] moves the cursor
    afterwards by the event's simulated cost. *)

(* --- inspection (for exporters and tests) --- *)

val events : t -> Event.t list
(** Completed events, oldest first. *)

val dropped : t -> int

val capacity : t -> int

val open_spans : t -> int

val process_names : t -> (int * string) list
(** Sorted by pid. *)

val thread_names : t -> ((int * int) * string) list
(** Sorted by (pid, tid). *)
