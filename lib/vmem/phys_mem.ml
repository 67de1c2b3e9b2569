(* A page's contents are 32 lines of 128 bytes.  [mask] has one bit per
   line that has been written; [data] holds the present lines packed in
   line order, and an absent line reads as zero.  A sparse payload grows
   its [data] fourfold up to half a page; one line more and it turns
   dense: every bit set, [data] a whole page with line [i] at [i * 128],
   read and written with no lookup at all.  Most simulated frames hold a
   few 16-byte object headers, so they cost one or two lines, not 4 KiB.

   A frame nothing has written holds the shared [zero] payload, which is
   never written: the first line written to a frame gives it a payload of
   its own.  Writing zeros into an absent line leaves it absent, and a
   copy can make a line absent again (see [copy]). *)
type payload = {
  mutable mask : int;
  mutable data : bytes;
}

let line_bits = 7
let line_size = 1 lsl line_bits
let lines_per_page = Addr.page_size / line_size
let full = (1 lsl lines_per_page) - 1

(* A sparse payload holds at most this many lines. *)
let sparse_max = lines_per_page / 2

let zero = { mask = 0; data = Bytes.empty }

(* The state of a frame not in use; never handed out. *)
let free = { mask = 0; data = Bytes.empty }

(* Nothing is allocated in proportion to the capacity: frames below
   [fresh] have been handed out at least once and have a slot in
   [frames], which grows on demand; every frame from [fresh] up is free.
   A freed frame goes on the [free_list] stack, and allocation takes the
   most recently freed frame first, then the lowest never-used one. *)
type t = {
  capacity : int;
  mutable frames : payload array;
  mutable fresh : int;
  free_list : int Svagc_util.Vec.t;
  mutable in_use : int;
  spare : payload array;  (* payloads [copy] dropped, [spares] of them *)
  mutable spares : int;
}

exception Out_of_frames

(* A copy that slides a page's lines to another page often covers the
   page with a zero one next, so it frees a payload as the next page
   needs one: up to this many dropped payloads wait for reuse. *)
let spare_max = 16

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  {
    capacity = frames;
    frames = [||];
    fresh = 0;
    free_list = Svagc_util.Vec.create ();
    in_use = 0;
    spare = Array.make spare_max free;
    spares = 0;
  }

let capacity_frames t = t.capacity

let frames_in_use t = t.in_use

(* The payload of a frame in use; [fn] names the caller in the error. *)
let in_use t frame fn =
  if frame < 0 || frame >= t.capacity then
    invalid_arg ("Phys_mem." ^ fn ^ ": no such frame");
  let p = if frame < t.fresh then t.frames.(frame) else free in
  if p == free then invalid_arg ("Phys_mem." ^ fn ^ ": frame not in use");
  p

let alloc_frame_with t payload =
  let frame =
    if not (Svagc_util.Vec.is_empty t.free_list) then
      Svagc_util.Vec.pop_last t.free_list
    else if t.fresh < t.capacity then begin
      let frame = t.fresh in
      let n = Array.length t.frames in
      if frame = n then begin
        let frames = Array.make (min t.capacity (max 64 (2 * n))) free in
        Array.blit t.frames 0 frames 0 n;
        t.frames <- frames
      end;
      t.fresh <- frame + 1;
      frame
    end
    else raise Out_of_frames
  in
  t.frames.(frame) <- payload;
  t.in_use <- t.in_use + 1;
  frame

let alloc_frame t = alloc_frame_with t zero

let free_frame t frame =
  ignore (in_use t frame "free_frame");
  t.frames.(frame) <- free;
  t.in_use <- t.in_use - 1;
  Svagc_util.Vec.push t.free_list frame

let payload t frame = in_use t frame "payload"

let take_frame t frame =
  let p = in_use t frame "take_frame" in
  free_frame t frame;
  p

(* --- Lines --- *)

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) land 0xffffffff) lsr 24

let lines p = popcount (p.mask land full)

let present p l = p.mask land (1 lsl l) <> 0

(* Where present line [l] starts in [p.data]. *)
let line_at p l =
  if p.mask = full then l lsl line_bits
  else popcount (p.mask land ((1 lsl l) - 1)) lsl line_bits

(* Make absent line [l] of [p] present and zero: shift the lines after it
   up one, growing [data] if it is full, or turn the page dense. *)
let add_line p l =
  let n = lines p in
  if n >= sparse_max then begin
    let d = Bytes.make Addr.page_size '\000' in
    let k = ref 0 in
    for i = 0 to lines_per_page - 1 do
      if present p i then begin
        Bytes.blit p.data (!k lsl line_bits) d (i lsl line_bits) line_size;
        incr k
      end
    done;
    p.data <- d;
    p.mask <- full
  end
  else begin
    let at = popcount (p.mask land ((1 lsl l) - 1)) lsl line_bits in
    let tail = (n lsl line_bits) - at in
    if n lsl line_bits < Bytes.length p.data then
      Bytes.blit p.data at p.data (at + line_size) tail
    else begin
      (* Room for 1, then 4, then [sparse_max] lines. *)
      let d = Bytes.create (max line_size (4 * Bytes.length p.data)) in
      Bytes.blit p.data 0 d 0 at;
      Bytes.blit p.data at d (at + line_size) tail;
      p.data <- d
    end;
    Bytes.fill p.data at line_size '\000';
    p.mask <- p.mask lor (1 lsl l)
  end

(* [frame]'s payload [d], made the frame's own if it is [zero]: a spare
   one when there is one, with no line stored. *)
let own t frame d =
  if d != zero then d
  else begin
    let p =
      if t.spares = 0 then { mask = 0; data = Bytes.empty }
      else begin
        t.spares <- t.spares - 1;
        let p = t.spare.(t.spares) in
        t.spare.(t.spares) <- free;
        p
      end
    in
    t.frames.(frame) <- p;
    p
  end

(* [frame], whose payload is [d], stores nothing any more: it holds
   [zero], and [d] waits as a spare. *)
let drop t frame d =
  t.frames.(frame) <- zero;
  if d != zero && t.spares < spare_max then begin
    d.mask <- 0;
    t.spare.(t.spares) <- d;
    t.spares <- t.spares + 1
  end

(* The payload of [frame] with line [l] present, giving the frame a
   payload of its own first if it holds [zero]. *)
let materialize t frame l =
  let p = own t frame t.frames.(frame) in
  if not (present p l) then add_line p l;
  p

let check_range ~off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Phys_mem: range escapes the page"

(* The bytes of [off, off+len) up to the end of the line holding [off]. *)
let seg_len ~off ~stop = min stop ((off lor (line_size - 1)) + 1) - off

(* Where the run of lines from [l] that are all in [mask] (or all out),
   like line [l], ends: a byte offset, at most [stop].  A run of a
   payload's stored lines is one contiguous stretch of its [data]. *)
let run_end mask l ~stop =
  let want = mask land (1 lsl l) <> 0 in
  let l = ref (l + 1) in
  while !l lsl line_bits < stop && (mask land (1 lsl !l) <> 0) = want do
    incr l
  done;
  min stop (!l lsl line_bits)

(* The lines [off, off+len) touches, as a mask. *)
let lines_of ~off ~len =
  if len = 0 then 0
  else (1 lsl (((off + len - 1) lsr line_bits) + 1)) - (1 lsl (off lsr line_bits))

(* Where byte [off] is in [p.data]; its line must be stored. *)
let data_at p off = line_at p (off lsr line_bits) + (off land (line_size - 1))

(* --- Reads --- *)

let read_into p ~off ~len ~dst ~dst_off =
  check_range ~off ~len;
  let pos = ref off and stop = off + len in
  while !pos < stop do
    let l = !pos lsr line_bits in
    let e = run_end p.mask l ~stop and at = dst_off + (!pos - off) in
    if present p l then Bytes.blit p.data (data_at p !pos) dst at (e - !pos)
    else Bytes.fill dst at (e - !pos) '\000';
    pos := e
  done

let get_u8 p off =
  check_range ~off ~len:1;
  let l = off lsr line_bits in
  if present p l then
    Char.code (Bytes.get p.data (data_at p off))
  else 0

let get_u32 p off =
  get_u8 p off
  lor (get_u8 p (off + 1) lsl 8)
  lor (get_u8 p (off + 2) lsl 16)
  lor (get_u8 p (off + 3) lsl 24)

let get_i64 p off =
  check_range ~off ~len:8;
  if p.mask = full then Bytes.get_int64_le p.data off
  else begin
    if off land (line_size - 1) <= line_size - 8 then
      if present p (off lsr line_bits) then Bytes.get_int64_le p.data (data_at p off)
      else 0L
    else
      (* The word straddles two lines: assemble it a byte at a time. *)
      Int64.logor
        (Int64.of_int (get_u32 p off))
        (Int64.shift_left (Int64.of_int (get_u32 p (off + 4))) 32)
  end

let fnv1a p ~off ~len h =
  check_range ~off ~len;
  let h = ref h and pos = ref off and stop = off + len in
  while !pos < stop do
    let l = !pos lsr line_bits in
    let e = run_end p.mask l ~stop in
    if present p l then begin
      let at = data_at p !pos in
      for i = at to at + (e - !pos) - 1 do
        h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get p.data i)));
        h := Int64.mul !h 0x100000001b3L
      done
    end
    else
      (* xor with a zero byte is the identity. *)
      for _ = 1 to e - !pos do
        h := Int64.mul !h 0x100000001b3L
      done;
    pos := e
  done;
  !h

(* --- Writes --- *)

let all_zero b ~off ~len =
  let i = ref off in
  while !i < off + len && Bytes.get b !i = '\000' do
    incr i
  done;
  !i = off + len

let write t ~frame ~off ~src ~src_off ~len =
  check_range ~off ~len;
  let p = in_use t frame "write" in
  if p.mask = full then Bytes.blit src src_off p.data off len
  else begin
    let pos = ref off and stop = off + len in
    while !pos < stop do
      let l = !pos lsr line_bits and n = seg_len ~off:!pos ~stop in
      let s = src_off + (!pos - off) in
      if present t.frames.(frame) l || not (all_zero src ~off:s ~len:n) then begin
        let p = materialize t frame l in
        Bytes.blit src s p.data (data_at p !pos) n
      end;
      pos := !pos + n
    done
  end

let set_u8 t frame off v =
  let l = off lsr line_bits in
  if v <> 0 || present t.frames.(frame) l then begin
    let p = materialize t frame l in
    Bytes.set p.data (data_at p off) (Char.unsafe_chr v)
  end

let set_i64 t ~frame ~off v =
  check_range ~off ~len:8;
  let p = in_use t frame "set_i64" in
  if p.mask = full then Bytes.set_int64_le p.data off v
  else begin
    let l = off lsr line_bits in
    if off land (line_size - 1) <= line_size - 8 then begin
      if present p l || not (Int64.equal v 0L) then begin
        let p = materialize t frame l in
        Bytes.set_int64_le p.data (data_at p off) v
      end
    end
    else
      (* The word straddles two lines: store it a byte at a time. *)
      for i = 0 to 7 do
        set_u8 t frame (off + i)
          (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
      done
  end

let fill t ~frame ~off ~len c =
  check_range ~off ~len;
  let p = in_use t frame "fill" in
  if p.mask = full then Bytes.fill p.data off len c
  else begin
    let pos = ref off and stop = off + len in
    while !pos < stop do
      let l = !pos lsr line_bits and n = seg_len ~off:!pos ~stop in
      if c <> '\000' || present t.frames.(frame) l then begin
        let p = materialize t frame l in
        Bytes.fill p.data (data_at p !pos) n c
      end;
      pos := !pos + n
    done
  end

(* Zero [off, off+len) of [p] where its lines are stored. *)
let zero_stored p ~off ~len =
  let pos = ref off and stop = off + len in
  if p.mask land lines_of ~off ~len = 0 then pos := stop;
  while !pos < stop do
    let l = !pos lsr line_bits in
    let e = run_end p.mask l ~stop in
    if present p l then Bytes.fill p.data (data_at p !pos) (e - !pos) '\000';
    pos := e
  done

(* The bytes of sparse data with room for [n] lines: 1, 4 or [sparse_max]
   lines, the sizes [add_line] grows through. *)
let sparse_bytes n =
  if n <= 1 then line_size else if n <= 4 then 4 * line_size else sparse_max * line_size

(* [m] moved up [k] lines (down when [k] is negative); lines past the top
   are kept for the caller to mask off. *)
let shift_lines m k = if k >= 0 then m lsl k else m lsr (-k)

(* A whole page: [frame] ends up storing exactly [src]'s lines, in a
   buffer of its own, so no two owners ever share one. *)
let copy_page t ~src ~frame d =
  if src != d then begin
    let n = lines src in
    if n = 0 then drop t frame d
    else begin
      let bytes = if src.mask = full then Addr.page_size else n lsl line_bits in
      let d = own t frame d in
      if Bytes.length d.data < bytes then
        d.data <-
          Bytes.create (if src.mask = full then Addr.page_size else sparse_bytes n);
      Bytes.blit src.data 0 d.data 0 bytes;
      d.mask <- src.mask land full
    end
  end

(* Run by run of the source lines in [stored], which [src] stores, onto a
   destination that already stores every line a run of them lands on: a
   stored run is one blit, since stored lines are contiguous in [data];
   an absent run zeroes what the destination stores there (and [src]
   holds zeros there, if anything).  [src] may be [d], with [off <=
   src_off]: ascending runs read every source byte before it is
   overwritten. *)
let copy_runs ~src ~stored ~src_off d ~off ~len =
  let pos = ref src_off and stop = src_off + len and shift = off - src_off in
  while !pos < stop do
    let l = !pos lsr line_bits in
    let e = run_end stored l ~stop and o = !pos + shift in
    if stored land (1 lsl l) <> 0 then
      Bytes.blit src.data (data_at src !pos) d.data (data_at d o) (e - !pos)
    else zero_stored d ~off:o ~len:(e - !pos);
    pos := e
  done

(* Make [d] store the lines of [m], a superset of its mask, in one pass
   from the top line down: a line moves only up, above every line still
   to move, so the pass works in place when [d]'s buffer has room, and
   otherwise fills one fresh buffer.  An added line reads as zero.  A
   page of more than [sparse_max] lines turns dense. *)
let add_lines d m =
  let n = popcount m in
  let m = if n > sparse_max then full else m in
  let n = if m = full then lines_per_page else n in
  let b =
    if Bytes.length d.data >= n lsl line_bits then d.data
    else Bytes.create (if m = full then Addr.page_size else sparse_bytes n)
  in
  (* [!k] lines of [m] and [!old] of [d] lie below line [!l]; once they
     are as many, in place, every line below is where it belongs. *)
  let k = ref n and old = ref (lines d) and l = ref lines_per_page in
  while !l > 0 && not (b == d.data && !k = !old) do
    decr l;
    if m land (1 lsl !l) <> 0 then begin
      decr k;
      if present d !l then begin
        decr old;
        Bytes.blit d.data (!old lsl line_bits) b (!k lsl line_bits) line_size
      end
      else Bytes.fill b (!k lsl line_bits) line_size '\000'
    end
  done;
  d.data <- b;
  d.mask <- m

(* Make sparse [d] store only the lines of [m], a subset of its mask, in
   one pass from the bottom line up. *)
let drop_lines d m =
  let k = ref 0 and old = ref 0 in
  for l = 0 to lines_per_page - 1 do
    if present d l then begin
      if m land (1 lsl l) <> 0 then begin
        if !k <> !old then
          Bytes.blit d.data (!old lsl line_bits) d.data (!k lsl line_bits) line_size;
        incr k
      end;
      incr old
    end
  done;
  d.mask <- m

(* [frame]'s sparse payload [d] stops storing the lines of [r]. *)
let remove_lines t frame d r =
  let keep = d.mask land lnot r in
  if keep <> d.mask && d.mask <> full then
    if keep = 0 then drop t frame d else drop_lines d keep

(* A copy onto a sparse page drops the whole lines it covers with absent
   source bytes ([drop_lines]), stores every line a stored source line
   lands on ([add_lines]), then copies run by run; a partly covered line
   keeps its state.  The drop comes first when the bytes come from
   another payload, so the page never holds both sets of lines; when the
   page copies onto itself it comes last, once every source byte is read
   (adding lines moves none of them out of reach).  A dense page stays
   dense. *)
let copy_partial t ~src ~src_off ~frame d ~off ~len =
  let stored = src.mask in
  if d.mask = full then copy_runs ~src ~stored ~src_off d ~off ~len
  else begin
    let shift = off - src_off in
    let q = shift asr line_bits in
    let s = stored land lines_of ~off:src_off ~len in
    let hit =
      lines_of ~off ~len
      land
      if shift land (line_size - 1) = 0 then shift_lines s q
      else shift_lines s q lor shift_lines s (q + 1)
    in
    let first = (off + line_size - 1) lsr line_bits
    and last = (off + len) lsr line_bits in
    let covered = if last > first then (1 lsl last) - (1 lsl first) else 0 in
    let dropped = covered land lnot hit and self = src == d in
    if not self then remove_lines t frame d dropped;
    let d = t.frames.(frame) in
    let d =
      if hit land lnot d.mask = 0 then d
      else begin
        let d = own t frame d in
        add_lines d (d.mask lor hit);
        d
      end
    in
    copy_runs ~src ~stored ~src_off d ~off ~len;
    if self then remove_lines t frame d dropped
  end

let copy t ~src ~src_off ~frame ~off ~len =
  check_range ~off:src_off ~len;
  check_range ~off ~len;
  let d = in_use t frame "copy" in
  if src == d && d != zero && off > src_off && off < src_off + len then
    invalid_arg "Phys_mem.copy: overlapping copy up";
  if len = Addr.page_size then copy_page t ~src ~frame d
  else if src.mask = full && d.mask = full then
    Bytes.blit src.data src_off d.data off len
  else copy_partial t ~src ~src_off ~frame d ~off ~len

(* --- Identity --- *)

(* OCaml has no identity hash, so each payload is tagged with its index
   in the mask bits above the page's lines: a payload reached twice reads
   back the later index.  The tags are cleared before returning. *)
let last_alias ps =
  let n = Array.length ps in
  let tag = lines_per_page in
  let shared = Array.make n 0 in
  Array.iteri
    (fun i p -> if p != zero then p.mask <- (p.mask land full) lor ((i + 1) lsl tag))
    ps;
  Array.iteri
    (fun i p -> shared.(i) <- (if p == zero then i else (p.mask lsr tag) - 1))
    ps;
  Array.iter (fun p -> p.mask <- p.mask land full) ps;
  shared
