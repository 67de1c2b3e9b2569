(** Export a recorded trace as Chrome trace-event JSON.

    The output is the "JSON Object Format" understood by Perfetto and
    [chrome://tracing]: a top-level object with a [traceEvents] array of
    complete-span ([ph:"X"]) and instant ([ph:"i"]) events plus
    process/thread-name metadata.  Timestamps are converted from the
    recorder's simulated nanoseconds to the format's microseconds.

    Rendering is canonical (see {!Json}), so two identical simulated runs
    produce byte-identical files — the determinism tests rely on it. *)

val to_string : Tracer.t -> string

val write_file : Tracer.t -> string -> unit
