(* Host-time sections for the traced run.

   A section is entered and left around a call into one layer's public
   function.  The open sections form a stack; when a section is left, its
   elapsed time (and minor-heap words) is charged to its parent as child
   time, and what remains is the section's own self time.  Self times are
   kept per (section, parent) edge so the nesting survives into the report.
   Summed over every edge, self time telescopes to the elapsed time of the
   root sections, which is what lets the traced run check that the layers
   account for its whole wall time.

   The stack and the accumulators are preallocated int and float arrays:
   entering and leaving a section allocates nothing, so the profiler's own
   minor-heap traffic does not show up in the [alloc] column. *)

let max_sections = 32
let max_depth = 16
let now () = Int64.to_int (Monotonic_clock.now ())

let names = Array.make max_sections ""
let n_sections = ref 0

type section = int

let section name =
  let rec find i =
    if i = !n_sections then begin
      if i = max_sections then invalid_arg "Prof.section: too many sections";
      names.(i) <- name;
      incr n_sections;
      i
    end
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

(* Edge (section, parent) lives at [section * stride + parent + 1];
   parent -1 is the root. *)
let stride = max_sections + 1
let self_ns = Array.make (max_sections * stride) 0
let calls = Array.make (max_sections * stride) 0
let words = Array.make (max_sections * stride) 0.0

let depth = ref 0
let st_sec = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.0
let st_wchild = Array.make max_depth 0.0

let enter s =
  let d = !depth in
  st_sec.(d) <- s;
  st_child.(d) <- 0;
  st_wchild.(d) <- 0.0;
  depth := d + 1;
  st_w0.(d) <- Gc.minor_words ();
  st_t0.(d) <- now ()

let leave () =
  let t = now () in
  let w = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let el = t - st_t0.(d) and wel = w -. st_w0.(d) in
  let parent = if d = 0 then -1 else st_sec.(d - 1) in
  let i = (st_sec.(d) * stride) + parent + 1 in
  self_ns.(i) <- self_ns.(i) + el - st_child.(d);
  calls.(i) <- calls.(i) + 1;
  words.(i) <- words.(i) +. wel -. st_wchild.(d);
  if d > 0 then begin
    st_child.(d - 1) <- st_child.(d - 1) + el;
    st_wchild.(d - 1) <- st_wchild.(d - 1) +. wel
  end

let time s f =
  enter s;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

type edge = {
  name : string;
  parent : string;  (** "" for a root section *)
  e_self_ns : int;
  e_calls : int;
  e_words : float;
}

let edges () =
  let acc = ref [] in
  for s = !n_sections - 1 downto 0 do
    for p = !n_sections downto 0 do
      let i = (s * stride) + p in
      if calls.(i) > 0 then
        acc :=
          {
            name = names.(s);
            parent = (if p = 0 then "" else names.(p - 1));
            e_self_ns = self_ns.(i);
            e_calls = calls.(i);
            e_words = words.(i);
          }
          :: !acc
    done
  done;
  !acc

let total_self_ns () = Array.fold_left ( + ) 0 self_ns

(* A fixed memory-bound kernel, timed next to every timed batch.  On a
   shared host the speed of identical work drifts by tens of percent over
   minutes, mostly through contention for memory; a batch's time divided by
   the kernel's time measured beside it cancels most of that drift.  The
   kernel allocates nothing once its buffers exist, so the simulator's heap
   does not change its cost, and the buffers are built on first use, after
   the run has read its peak RSS.  It belongs to the benchmark: changing it
   makes host times before and after incomparable. *)
module Host_speed = struct
  (* About the kernel's time on a 2-vCPU Intel Xeon VM at rest. *)
  let nominal_ns = 40_000_000

  let buffers =
    lazy
      ( Array.make (1 lsl 22) 0,
        Bytes.make (32 * 1024 * 1024) 'a',
        Bytes.make (32 * 1024 * 1024) 'b' )

  (* Random increments over 32 MiB, then four 32 MiB copies. *)
  let kernel_ns () =
    let table, src, dst = Lazy.force buffers in
    let t0 = now () in
    let x = ref 17 in
    for i = 0 to 2_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !x land (Array.length table - 1) in
      table.(j) <- table.(j) + i
    done;
    for _ = 1 to 4 do
      Bytes.blit src 0 dst 0 (Bytes.length src)
    done;
    now () - t0
end

(* The host GC's own pauses, read in-process from [Runtime_events].  Minor
   time is every [EV_MINOR] span that is not inside a major-family span;
   major time is every outermost major-family span (slices, forced cycles,
   explicit [Gc.full_major]), so the two never double-count.  Events are
   tallied only while [collecting] is set, so the untraced batches that
   share the process are left out. *)
module Host_gc = struct
  open Runtime_events

  let collecting = ref false
  let minor_ns = ref 0
  let minor_count = ref 0
  let major_ns = ref 0
  let major_count = ref 0
  let lost = ref 0
  let major_depth = ref 0
  let major_t0 = ref 0
  let minor_t0 = ref (-1)

  let is_major = function
    | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
    | _ -> false

  let ts t = Int64.to_int (Timestamp.to_int64 t)

  let runtime_begin _ t phase =
    if is_major phase then begin
      if !major_depth = 0 then major_t0 := ts t;
      incr major_depth
    end
    else if phase = EV_MINOR && !major_depth = 0 then minor_t0 := ts t

  let runtime_end _ t phase =
    if is_major phase then begin
      if !major_depth > 0 then begin
        decr major_depth;
        if !major_depth = 0 && !collecting then begin
          major_ns := !major_ns + (ts t - !major_t0);
          incr major_count
        end
      end
    end
    else if phase = EV_MINOR && !minor_t0 >= 0 then begin
      if !collecting then begin
        minor_ns := !minor_ns + (ts t - !minor_t0);
        incr minor_count
      end;
      minor_t0 := -1
    end

  (* Lost events may include an end: forget the open spans rather than
     let one stuck major span swallow every later minor. *)
  let lost_events _ n =
    if !collecting then lost := !lost + n;
    major_depth := 0;
    minor_t0 := -1

  let callbacks = Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

  let cursor = ref None

  let start () =
    Runtime_events.start ();
    cursor := Some (create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (read_poll c callbacks None)
    | None -> ()
end
