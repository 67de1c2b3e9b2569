(** Trace events: the unit stored in the recorder's ring buffer.

    All timestamps are simulated nanoseconds (the same unit as {!Clock} in
    [svagc_vmem]); the exporters convert as needed.  Events carry two track
    coordinates mirroring the Chrome trace-event model: [pid] (one per
    simulated JVM / process) and [tid] (one per GC driver or core). *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind =
  | Span of float  (** a completed span; the payload is its duration in ns *)
  | Instant  (** a point event (IPI, TLB flush, syscall) *)

type t = {
  seq : int;  (** monotonic sequence number; tie-breaker for sorting *)
  ts : float;  (** simulated ns *)
  pid : int;
  tid : int;
  cat : string;
  name : string;
  kind : kind;
  args : (string * value) list;
}

val is_span : t -> bool

val dur_ns : t -> float
(** Duration of a span, [0.] for instants. *)

val end_ts : t -> float
(** [ts + dur_ns]. *)

val pp : Format.formatter -> t -> unit
