(* A frame in use starts [Zeroed]: logically zero-filled, but with no
   backing [Bytes] until something actually touches its contents.  A
   simulated machine can hold millions of frames for workloads (like PTE
   swapping) that never read or write a single payload byte — allocating
   gigabytes of real zeroes up front both slows machine setup and keeps a
   huge live heap that paces the host GC during everything that follows. *)
type frame_state =
  | Free
  | Zeroed
  | Data of bytes

(* Nothing is allocated in proportion to the capacity: frames below
   [fresh] have been handed out at least once and have a slot in
   [frames], which grows on demand; every frame from [fresh] up is [Free].
   A freed frame goes on the [free] stack, and allocation takes the most
   recently freed frame first, then the lowest never-used one. *)
type t = {
  capacity : int;
  mutable frames : frame_state array;
  mutable fresh : int;
  free : int Svagc_util.Vec.t;
  mutable in_use : int;
}

exception Out_of_frames

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  {
    capacity = frames;
    frames = [||];
    fresh = 0;
    free = Svagc_util.Vec.create ();
    in_use = 0;
  }

let capacity_frames t = t.capacity

let frames_in_use t = t.in_use

(* A frame's state, with the bounds error of the array it models. *)
let state t frame =
  if frame < 0 || frame >= t.capacity then invalid_arg "index out of bounds";
  if frame < t.fresh then t.frames.(frame) else Free

let alloc_frame t =
  let frame =
    if not (Svagc_util.Vec.is_empty t.free) then Svagc_util.Vec.pop_last t.free
    else if t.fresh < t.capacity then begin
      let frame = t.fresh in
      let n = Array.length t.frames in
      if frame = n then begin
        let frames = Array.make (min t.capacity (max 64 (2 * n))) Free in
        Array.blit t.frames 0 frames 0 n;
        t.frames <- frames
      end;
      t.fresh <- frame + 1;
      frame
    end
    else raise Out_of_frames
  in
  t.frames.(frame) <- Zeroed;
  t.in_use <- t.in_use + 1;
  frame

let free_frame t frame =
  match state t frame with
  | Free -> invalid_arg "Phys_mem.free_frame: frame not in use"
  | Zeroed | Data _ ->
    t.frames.(frame) <- Free;
    t.in_use <- t.in_use - 1;
    Svagc_util.Vec.push t.free frame

let frame_contents t frame =
  if frame < 0 || frame >= t.capacity then
    invalid_arg "Phys_mem.frame_contents: no such frame";
  match state t frame with
  | Free -> invalid_arg "Phys_mem.frame_contents: frame not in use"
  | Zeroed -> None
  | Data b -> Some b

let take_frame t frame =
  let payload = frame_contents t frame in
  free_frame t frame;
  payload

let alloc_frame_with t payload =
  (match payload with
  | Some b when Bytes.length b <> Addr.page_size ->
    invalid_arg "Phys_mem.alloc_frame_with: payload is not one page"
  | _ -> ());
  let frame = alloc_frame t in
  Option.iter (fun b -> t.frames.(frame) <- Data b) payload;
  frame

let frame_bytes t frame =
  if frame < 0 || frame >= t.capacity then
    invalid_arg "Phys_mem.frame_bytes: no such frame";
  match state t frame with
  | Free -> invalid_arg "Phys_mem.frame_bytes: frame not in use"
  | Zeroed ->
    let b = Bytes.make Addr.page_size '\000' in
    t.frames.(frame) <- Data b;
    b
  | Data b -> b

let check_range ~off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Phys_mem: range escapes the page"

let read t ~frame ~off ~len =
  check_range ~off ~len;
  Bytes.sub (frame_bytes t frame) off len

let read_into t ~frame ~off ~len ~dst ~dst_off =
  check_range ~off ~len;
  match state t frame with
  | Free -> invalid_arg "Phys_mem.read_into: frame not in use"
  | Zeroed -> Bytes.fill dst dst_off len '\000'
  | Data b -> Bytes.blit b off dst dst_off len

let write t ~frame ~off ~src ~src_off ~len =
  check_range ~off ~len;
  Bytes.blit src src_off (frame_bytes t frame) off len

let blit t ~src_frame ~src_off ~dst_frame ~dst_off ~len =
  check_range ~off:src_off ~len;
  check_range ~off:dst_off ~len;
  Bytes.blit (frame_bytes t src_frame) src_off (frame_bytes t dst_frame) dst_off len
