open Svagc_heap
module Machine = Svagc_vmem.Machine
module Perf = Svagc_vmem.Perf

type config = {
  label : string;
  threads : int;
  compact_threads : int;
  mover : Compact.mover;
}

let config ?(label = "lisp2") ?(threads = 4) ?compact_threads
    ?(mover = Compact.memmove_mover) () =
  if threads <= 0 then invalid_arg "Lisp2.config: threads must be positive";
  let compact_threads = Option.value compact_threads ~default:threads in
  if compact_threads <= 0 then
    invalid_arg "Lisp2.config: compact_threads must be positive";
  { label; threads; compact_threads; mover }

module Tracer = Svagc_trace.Tracer
module Event = Svagc_trace.Event

let collect cfg heap =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let before = Perf.copy machine.Machine.perf in
  let top_before = Heap.top heap in
  (* The whole cycle is one span named after the collector, with the four
     LISP2 phases as child spans.  Span durations are the simulated phase
     makespans; the recorder attaches perf-counter deltas to each span. *)
  Tracer.span_begin ~cat:"gc"
    ~args:[ ("threads", Event.Int cfg.threads) ]
    cfg.label;
  Tracer.span_begin ~cat:"gc" "mark";
  let mark_ns = Mark.run heap ~threads:cfg.threads in
  Tracer.span_end ~dur_ns:mark_ns ();
  Tracer.span_begin ~cat:"gc" "forward";
  let fwd = Forward.run heap ~threads:cfg.threads in
  Tracer.span_end ~dur_ns:fwd.Forward.phase_ns ();
  Tracer.span_begin ~cat:"gc" "adjust";
  let adjust_ns = Adjust.run heap ~threads:cfg.threads ~live:fwd.Forward.live in
  Tracer.span_end ~dur_ns:adjust_ns ();
  let live_objects = Array.length fwd.Forward.live in
  let live_bytes =
    Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 fwd.Forward.live
  in
  Tracer.span_begin ~cat:"gc" "compact";
  let compact =
    Compact.run heap ~threads:cfg.compact_threads ~mover:cfg.mover
      ~live:fwd.Forward.live ~new_top:fwd.Forward.new_top
  in
  Tracer.span_end
    ~args:
      [
        ("moved_objects", Event.Int compact.Compact.moved_objects);
        ("swapped_objects", Event.Int compact.Compact.swapped_objects);
      ]
    ~dur_ns:compact.Compact.phase_ns ();
  let delta = Perf.diff ~after:machine.Machine.perf ~before in
  let cycle =
    {
      Gc_stats.mark_ns;
      forward_ns = fwd.Forward.phase_ns;
      adjust_ns;
      compact_ns = compact.Compact.phase_ns;
      concurrent_ns = 0.0;
      live_objects;
      live_bytes;
      reclaimed_bytes = max 0 (top_before - fwd.Forward.new_top);
      moved_objects = compact.Compact.moved_objects;
      swapped_objects = compact.Compact.swapped_objects;
      bytes_copied = Perf.get delta Bytes_copied;
      bytes_remapped = Perf.get delta Bytes_remapped;
    }
  in
  Tracer.span_end
    ~args:
      [
        ("live_objects", Event.Int live_objects);
        ("live_bytes", Event.Int live_bytes);
        ("reclaimed_bytes", Event.Int cycle.Gc_stats.reclaimed_bytes);
      ]
    ~dur_ns:(Gc_stats.pause_ns cycle) ();
  cycle

let collector cfg heap = Gc_intf.make ~name:cfg.label heap (fun () -> collect cfg heap)
