open Svagc_vmem

type chunk = {
  chunk_start : int;
  chunk_end : int;
  mutable small_cursor : int;  (* grows upward *)
  mutable large_cursor : int;  (* grows downward; always page-aligned *)
}

type t = {
  heap : Heap.t;
  thread_id : int;
  chunk_bytes : int;
  mutable chunk : chunk option;
}

let create heap ~thread_id ~chunk_bytes =
  if chunk_bytes < 4 * Addr.page_size then
    invalid_arg "Tlab.create: chunk must be at least 4 pages";
  { heap; thread_id; chunk_bytes; chunk = None }

let thread_id t = t.thread_id

let retire t = t.chunk <- None

let unused_gap t =
  match t.chunk with
  | None -> 0
  | Some c -> max 0 (c.large_cursor - c.small_cursor)

let fresh_chunk t =
  let start = Heap.alloc_chunk t.heap ~bytes:t.chunk_bytes in
  let chunk_end = start + t.chunk_bytes in
  {
    chunk_start = start;
    chunk_end;
    small_cursor = start;
    large_cursor = Addr.align_down chunk_end;
  }

(* Try to place [size] bytes in [c]: its address, or -1 when the chunk is
   exhausted. *)
let try_place t c ~size =
  if Heap.swap_sized t.heap ~size then begin
    (* Downward, whole pages: the object ends on the current (aligned)
       cursor and starts on a page boundary; the tail alignment gap is the
       internal waste Algorithm 3 accepts. *)
    let addr = Addr.align_down (c.large_cursor - size) in
    if addr < c.small_cursor then -1
    else begin
      c.large_cursor <- addr;
      addr
    end
  end
  else begin
    let addr = c.small_cursor in
    if addr + size > c.large_cursor then -1
    else begin
      c.small_cursor <- addr + size;
      addr
    end
  end

let alloc t ~size ~n_refs ~cls =
  if size > t.chunk_bytes / 2 then Heap.alloc t.heap ~size ~n_refs ~cls
  else begin
    let c =
      match t.chunk with
      | Some c -> c
      | None ->
        let c = fresh_chunk t in
        t.chunk <- Some c;
        c
    in
    let addr = try_place t c ~size in
    let addr =
      if addr >= 0 then addr
      else begin
        (* Chunk exhausted: retire and retry once in a fresh chunk. *)
        let c = fresh_chunk t in
        t.chunk <- Some c;
        let addr = try_place t c ~size in
        if addr < 0 then invalid_arg "Tlab.alloc: object cannot fit a fresh chunk";
        addr
      end
    in
    Heap.alloc_at t.heap ~addr ~size ~n_refs ~cls
  end
