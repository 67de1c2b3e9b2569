(** Per-cycle and aggregate GC accounting.

    Every collection produces one {!cycle}: the four LISP2 phase times (the
    paper's Fig. 1 breakdown), the moved-byte counters, and the part of the
    cycle's work that ran concurrently with the application (non-zero only
    for [Semispace]).  The copying collectors ([Evacuate]) charge no
    forward time: placement is part of the move. *)

type cycle = {
  mark_ns : float;
  forward_ns : float;
  adjust_ns : float;
  compact_ns : float;
  concurrent_ns : float;  (** charged to the app, not the pause *)
  live_objects : int;
  live_bytes : int;
  reclaimed_bytes : int;
  moved_objects : int;
  swapped_objects : int;  (** moved via SwapVA *)
  bytes_copied : int;
  bytes_remapped : int;
}

val pause_ns : cycle -> float
(** Stop-the-world time: the four phases. *)

val non_compact_ns : cycle -> float

type summary = {
  cycles : int;
  total_pause_ns : float;
  max_pause_ns : float;
  avg_pause_ns : float;
  total_compact_ns : float;
  total_other_ns : float;
  total_concurrent_ns : float;
  total_bytes_copied : int;
  total_bytes_remapped : int;
}

val summarize : cycle list -> summary
