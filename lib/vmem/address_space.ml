type t = {
  machine : Machine.t;
  asid : int;
  pt : Page_table.t;
}

(* See [Machine.created_hook]: lets svagc_check learn about every address
   space (asid -> live page table) without a dependency cycle. *)
let created_hook : (t -> unit) option ref = ref None

let create machine =
  let t =
    { machine; asid = Machine.fresh_asid machine; pt = Page_table.create () }
  in
  (match !created_hook with None -> () | Some f -> f t);
  t

let machine t = t.machine

let asid t = t.asid

let page_table t = t.pt

let map_range t ~va ~pages =
  if not (Addr.is_page_aligned va) then
    invalid_arg "Address_space.map_range: va not page-aligned";
  for i = 0 to pages - 1 do
    let page_va = va + (i * Addr.page_size) in
    if Pte.is_mapped (Page_table.get_pte t.pt page_va) then
      invalid_arg "Address_space.map_range: page already mapped";
    let frame = Phys_mem.alloc_frame t.machine.Machine.phys in
    Page_table.set_pte t.pt page_va (Pte.make ~frame);
    match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_mapped ~pt:t.pt ~asid:t.asid ~va:page_va
  done

let unmap_range t ~va ~pages =
  for i = 0 to pages - 1 do
    let page_va = Addr.align_down va + (i * Addr.page_size) in
    let pte = Page_table.get_pte t.pt page_va in
    if Pte.is_mapped pte then begin
      (* Tell the pressure plane first (it drops the page from its LRU
         lists, or frees a swapped page's slot), then release the frame. *)
      (match t.machine.Machine.reclaim with
      | None -> ()
      | Some r -> r.Machine.ri_page_unmapped ~asid:t.asid ~va:page_va ~pte);
      if Pte.is_present pte then
        Phys_mem.free_frame t.machine.Machine.phys (Pte.frame_exn pte);
      Page_table.set_pte t.pt page_va Pte.none
    end
  done

let is_mapped t ~va = Pte.is_mapped (Page_table.get_pte t.pt va)

let translate t ~va = Page_table.translate t.pt va

(* Demand paging lives here: any access that needs the backing frame of a
   swapped-out page routes through the pressure plane's fault handler,
   which swaps the page back in (possibly evicting others) and leaves the
   PTE present — so the recursive retry terminates after one fault.  The
   frame is only good until the next resolve: a later fault-in may evict
   this page. *)
let rec frame_of_exn t va =
  let pte = Page_table.get_pte t.pt va in
  if Pte.is_present pte then begin
    (match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_touched ~asid:t.asid ~va);
    Pte.frame_exn pte
  end
  else if Pte.is_swapped pte then begin
    match t.machine.Machine.reclaim with
    | Some r ->
      r.Machine.ri_fault_in ~pt:t.pt ~asid:t.asid ~va;
      frame_of_exn t va
    | None ->
      invalid_arg
        (Format.asprintf
           "Address_space: swapped address %a with no reclaim plane" Addr.pp va)
  end
  else
    invalid_arg (Format.asprintf "Address_space: unmapped address %a" Addr.pp va)

(* Apply [f frame off len] to each page-bounded chunk of [va, va+len). *)
let iter_chunks t ~va ~len f =
  let pos = ref va in
  let remaining = ref len in
  let consumed = ref 0 in
  while !remaining > 0 do
    let frame = frame_of_exn t !pos in
    let off = Addr.page_offset !pos in
    let chunk = min !remaining (Addr.page_size - off) in
    f ~frame ~off ~chunk ~at:!consumed;
    pos := !pos + chunk;
    consumed := !consumed + chunk;
    remaining := !remaining - chunk
  done

let read_bytes t ~va ~len =
  let out = Bytes.create len in
  let phys = t.machine.Machine.phys in
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at ->
      Phys_mem.read_into (Phys_mem.payload phys frame) ~off ~len:chunk ~dst:out
        ~dst_off:at);
  out

let write_bytes t ~va ~src =
  let len = Bytes.length src in
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at ->
      Phys_mem.write t.machine.Machine.phys ~frame ~off ~src ~src_off:at ~len:chunk)

let read_u8 t ~va =
  let frame = frame_of_exn t va in
  Phys_mem.get_u8 (Phys_mem.payload t.machine.Machine.phys frame) (Addr.page_offset va)

let write_u8 t ~va v =
  let frame = frame_of_exn t va in
  Phys_mem.fill t.machine.Machine.phys ~frame ~off:(Addr.page_offset va) ~len:1
    (Char.chr (v land 0xff))

(* Object headers sit at any byte offset (object sizes are drawn in
   bytes), and a word within one page takes one resolve and no buffer.  A
   word straddling two pages takes the chunked path. *)
let read_i64 t ~va =
  let off = Addr.page_offset va in
  if off <= Addr.page_size - 8 then
    Phys_mem.get_i64
      (Phys_mem.payload t.machine.Machine.phys (frame_of_exn t va))
      off
  else Bytes.get_int64_le (read_bytes t ~va ~len:8) 0

let write_i64 t ~va v =
  let off = Addr.page_offset va in
  if off <= Addr.page_size - 8 then
    Phys_mem.set_i64 t.machine.Machine.phys ~frame:(frame_of_exn t va) ~off v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t ~va ~src:b
  end

let fill t ~va ~len c =
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at:_ ->
      Phys_mem.fill t.machine.Machine.phys ~frame ~off ~len:chunk c)

(* The payload of the page holding [va] without faulting: a swapped
   page's comes from its slot. *)
let peek_payload t va =
  let pte = Page_table.get_pte t.pt va in
  if Pte.is_present pte then
    Phys_mem.payload t.machine.Machine.phys (Pte.frame_exn pte)
  else if Pte.is_swapped pte then begin
    match t.machine.Machine.reclaim with
    | Some r -> r.Machine.ri_slot_payload ~slot:(Pte.swap_slot_exn pte)
    | None ->
      invalid_arg
        (Format.asprintf
           "Address_space: swapped address %a with no reclaim plane" Addr.pp va)
  end
  else invalid_arg (Format.asprintf "Address_space: unmapped address %a" Addr.pp va)

let copy t ~src ~dst ~len =
  if len < 0 then invalid_arg "Address_space.copy: negative length";
  if dst > src && dst < src + len then
    (* Forward overlap: an ascending frame-to-frame copy would overwrite
       source bytes before reading them, so stage through a buffer.  No
       collector emits this (LISP2 slides objects down; the copying
       collectors move between disjoint spaces). *)
    write_bytes t ~va:dst ~src:(read_bytes t ~va:src ~len)
  else begin
    (* With a pressure plane, resolve every source page first, in
       ascending order, exactly as a staged read would: the plane sees the
       same touches and fault-ins in the same order.  Without one a
       resolve only checks the page, which the lookup below does too. *)
    if Option.is_some t.machine.Machine.reclaim then begin
      let pos = ref src in
      while !pos < src + len do
        ignore (frame_of_exn t !pos);
        pos := Addr.align_down !pos + Addr.page_size
      done
    end;
    (* Then resolve each destination page and write its chunks at once.
       Each source page's payload is looked up once, through the peek
       view, when the copy reaches it: a destination fault-in may have
       evicted the page, whose payload then sits intact in its slot, and
       an eviction after the lookup moves that very payload there.  With
       [dst < src] an ascending copy never writes a source page before it
       has read it, except the chunk that copies a page onto itself. *)
    let phys = t.machine.Machine.phys in
    let at = ref 0 in
    let frame = ref 0 in
    let payload = ref Phys_mem.zero in
    while !at < len do
      let s = src + !at and d = dst + !at in
      let doff = Addr.page_offset d and soff = Addr.page_offset s in
      if !at = 0 || soff = 0 then payload := peek_payload t s;
      if !at = 0 || doff = 0 then frame := frame_of_exn t d;
      let chunk =
        Int.min (len - !at) (Int.min (Addr.page_size - doff) (Addr.page_size - soff))
      in
      Phys_mem.copy phys ~src:!payload ~src_off:soff ~frame:!frame ~off:doff
        ~len:chunk;
      at := !at + chunk
    done
  end

(* Non-faulting page-chunk iteration: [f] receives the page's payload,
   read at [off].  Used by the oracles (checksum, audit) so that
   *observing* the heap never swaps pages in, materializes zero frames, or
   perturbs LRU state. *)
let iter_chunks_peek t ~va ~len f =
  let pos = ref va in
  let remaining = ref len in
  let consumed = ref 0 in
  while !remaining > 0 do
    let off = Addr.page_offset !pos in
    let chunk = min !remaining (Addr.page_size - off) in
    f ~payload:(peek_payload t !pos) ~off ~chunk ~at:!consumed;
    pos := !pos + chunk;
    consumed := !consumed + chunk;
    remaining := !remaining - chunk
  done

let peek_bytes t ~va ~len =
  let out = Bytes.create len in
  iter_chunks_peek t ~va ~len (fun ~payload ~off ~chunk ~at ->
      Phys_mem.read_into payload ~off ~len:chunk ~dst:out ~dst_off:at);
  out

let peek_i64 t ~va =
  let off = Addr.page_offset va in
  if off <= Addr.page_size - 8 then Phys_mem.get_i64 (peek_payload t va) off
  else Bytes.get_int64_le (peek_bytes t ~va ~len:8) 0

let checksum t ~va ~len =
  let h = ref 0xcbf29ce484222325L in
  iter_chunks_peek t ~va ~len (fun ~payload ~off ~chunk ~at:_ ->
      h := Phys_mem.fnv1a payload ~off ~len:chunk !h);
  !h

(* The TLB half of a measured access: the frame backing [va], through a
   lookup or, on a miss, a page-table refill. *)
let resolve t ~core ~va =
  let c = Machine.core t.machine core in
  let vpn = Addr.page_number va in
  let frame = Tlb.lookup c.Machine.tlb ~asid:t.asid ~vpn in
  if frame >= 0 then begin
    (match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_touched ~asid:t.asid ~va);
    frame
  end
  else begin
    (* TLB miss: a swapped page demand-faults here (frame_of_exn runs
       the fault handler), after which the refill proceeds normally.
       Swap-out scrubs the page from every TLB, so a hit above always
       means present. *)
    let frame = frame_of_exn t va in
    Tlb.insert c.Machine.tlb ~asid:t.asid ~vpn ~frame;
    frame
  end

let touch t ~core ~va =
  let frame = resolve t ~core ~va in
  let pa = (frame * Addr.page_size) + Addr.page_offset va in
  Cache_sim.access t.machine.Machine.llc ~addr:pa

(* Page by page: the first line resolves the page, which leaves its entry
   resident, so each further line's lookup would be a hit on that entry
   and [Tlb.rehit] accounts them in one call.  The pressure plane hears
   one [ri_page_touched] per page rather than per line: it only sets the
   page's referenced bit, so repeating it changes nothing.  The LLC still
   sees every line, in address order. *)
let touch_range t ~core ~va ~len =
  if len > 0 then begin
    let llc = t.machine.Machine.llc in
    let line = Cache_sim.line_bytes llc in
    let tlb = (Machine.core t.machine core).Machine.tlb in
    let stop = va + len in
    let pos = ref (va - (va mod line)) in
    while !pos < stop do
      let page = Addr.align_down !pos in
      let lines = (min stop (page + Addr.page_size) - !pos + line - 1) / line in
      let frame = resolve t ~core ~va:!pos in
      if lines > 1 then
        Tlb.rehit tlb ~asid:t.asid ~vpn:(Addr.page_number page) ~times:(lines - 1);
      Cache_sim.access_range llc
        ~addr:((frame * Addr.page_size) - page + !pos)
        ~len:(lines * line);
      pos := !pos + (lines * line)
    done
  end

let mapped_pages t = Page_table.mapped_pages t.pt
