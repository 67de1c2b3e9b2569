(* Tests for the virtual-memory substrate: addresses, PTEs, physical
   memory, page tables, TLB, cache model, cost model, machine, address
   spaces. *)

open Svagc_vmem

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Addr --- *)

let test_addr_constants () =
  Alcotest.(check int) "page size" 4096 Addr.page_size;
  Alcotest.(check int) "entries" 512 Addr.entries_per_table;
  Alcotest.(check int) "pages per pmd" 512 Addr.pages_per_pmd

let test_addr_align () =
  Alcotest.(check int) "align_up exact" 4096 (Addr.align_up 4096);
  Alcotest.(check int) "align_up" 8192 (Addr.align_up 4097);
  Alcotest.(check int) "align_down" 4096 (Addr.align_down 8191);
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 8192);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 8193)

let test_addr_pages_spanned () =
  Alcotest.(check int) "one byte" 1 (Addr.pages_spanned 1);
  Alcotest.(check int) "one page" 1 (Addr.pages_spanned 4096);
  Alcotest.(check int) "just over" 2 (Addr.pages_spanned 4097);
  Alcotest.(check int) "zero" 0 (Addr.pages_spanned 0)

let test_addr_indices () =
  (* A known decomposition: vpn = pte + 512 * pmd number. *)
  let va = Addr.of_page ((3 * 512 * 512) + (5 * 512) + 7) in
  Alcotest.(check int) "pte" 7 (Addr.pte_index va);
  Alcotest.(check int) "pmd number" ((3 * 512) + 5) (Addr.pmd_number va)

let prop_addr_roundtrip =
  qtest "addr: of_page/page_number roundtrip"
    QCheck.(int_range 0 (1 lsl 35))
    (fun vpn -> Addr.page_number (Addr.of_page vpn) = vpn)

let prop_addr_align_up_invariants =
  qtest "addr: align_up is aligned and minimal"
    QCheck.(int_range 0 (1 lsl 40))
    (fun va ->
      let a = Addr.align_up va in
      Addr.is_page_aligned a && a >= va && a - va < Addr.page_size)

(* --- Pte --- *)

let test_pte () =
  Alcotest.(check bool) "none absent" false (Pte.is_present Pte.none);
  let v = Pte.make ~frame:42 in
  Alcotest.(check bool) "present" true (Pte.is_present v);
  Alcotest.(check int) "frame" 42 (Pte.frame_exn v);
  Alcotest.check_raises "frame of none"
    (Invalid_argument "Pte.frame_exn: entry not present") (fun () ->
      ignore (Pte.frame_exn Pte.none))

(* --- Phys_mem --- *)

let test_phys_alloc_free () =
  let pm = Phys_mem.create ~frames:4 in
  let f1 = Phys_mem.alloc_frame pm in
  let f2 = Phys_mem.alloc_frame pm in
  Alcotest.(check bool) "distinct" true (f1 <> f2);
  Alcotest.(check int) "in use" 2 (Phys_mem.frames_in_use pm);
  Phys_mem.free_frame pm f1;
  Alcotest.(check int) "freed" 1 (Phys_mem.frames_in_use pm);
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: frame not in use") (fun () ->
      Phys_mem.free_frame pm f1)

let test_phys_out_of_frames () =
  let pm = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc_frame pm);
  ignore (Phys_mem.alloc_frame pm);
  Alcotest.check_raises "exhausted" Phys_mem.Out_of_frames (fun () ->
      ignore (Phys_mem.alloc_frame pm))

let read pm ~frame ~off ~len =
  let b = Bytes.create len in
  Phys_mem.read_into (Phys_mem.payload pm frame) ~off ~len ~dst:b ~dst_off:0;
  Bytes.to_string b

let test_phys_read_write () =
  let pm = Phys_mem.create ~frames:2 in
  let f = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:f ~off:100 ~src:(Bytes.of_string "hello") ~src_off:0
    ~len:5;
  Alcotest.(check string) "readback" "hello" (read pm ~frame:f ~off:100 ~len:5);
  Alcotest.(check string) "zero fill" "\000" (read pm ~frame:f ~off:0 ~len:1)

let test_phys_blit () =
  let pm = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc_frame pm and b = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:a ~off:0 ~src:(Bytes.of_string "xyz") ~src_off:0 ~len:3;
  Phys_mem.copy pm ~src:(Phys_mem.payload pm a) ~src_off:0 ~frame:b ~off:10 ~len:3;
  Alcotest.(check string) "blitted" "xyz" (read pm ~frame:b ~off:10 ~len:3)

let test_phys_range_check () =
  let pm = Phys_mem.create ~frames:1 in
  let f = Phys_mem.alloc_frame pm in
  Alcotest.check_raises "escape" (Invalid_argument "Phys_mem: range escapes the page")
    (fun () -> ignore (read pm ~frame:f ~off:4090 ~len:10))

(* The pool hands out frames lazily, so its handout order and errors are
   pinned to what the eager pool (a reversed free list over every frame)
   gave: the most recently freed frame first, then the lowest never-used
   one; [Out_of_frames] exactly at capacity. *)
let test_phys_handout_order () =
  let pm = Phys_mem.create ~frames:8 in
  let log = ref [] in
  let alloc () =
    let f = Phys_mem.alloc_frame pm in
    log := string_of_int f :: !log;
    f
  in
  let free f =
    Phys_mem.free_frame pm f;
    log := ("-" ^ string_of_int f) :: !log
  in
  let f0 = alloc () in
  let f1 = alloc () in
  ignore (alloc ());
  let f3 = alloc () in
  ignore (alloc ());
  free f1;
  free f3;
  ignore (alloc ());
  ignore (alloc ());
  let f5 = alloc () in
  free f0;
  free f5;
  ignore (alloc ());
  let with_data =
    Phys_mem.alloc_frame_with pm (Helpers.payload_of_string (String.make 4096 'x'))
  in
  log := string_of_int with_data :: !log;
  log :=
    (if Phys_mem.lines (Phys_mem.take_frame pm 2) = 0 then "take 2: zero"
     else "take 2: data")
    :: !log;
  ignore (alloc ());
  ignore (alloc ());
  ignore (alloc ());
  Alcotest.(check (list string)) "handout order"
    [ "0"; "1"; "2"; "3"; "4"; "-1"; "-3"; "3"; "1"; "5"; "-0"; "-5"; "5"; "0";
      "take 2: zero"; "2"; "6"; "7" ]
    (List.rev !log);
  Alcotest.(check int) "all in use" 8 (Phys_mem.frames_in_use pm);
  Alcotest.check_raises "exhausted at capacity" Phys_mem.Out_of_frames (fun () ->
      ignore (Phys_mem.alloc_frame pm))

(* Every function that takes a frame names itself in its error. *)
let phys_error_cases =
  [
    ("free_frame", "never-used", "Phys_mem.free_frame: frame not in use");
    ("free_frame", "freed", "Phys_mem.free_frame: frame not in use");
    ("free_frame", "past-capacity", "Phys_mem.free_frame: no such frame");
    ("free_frame", "far", "Phys_mem.free_frame: no such frame");
    ("free_frame", "negative", "Phys_mem.free_frame: no such frame");
    ("payload", "never-used", "Phys_mem.payload: frame not in use");
    ("payload", "freed", "Phys_mem.payload: frame not in use");
    ("payload", "past-capacity", "Phys_mem.payload: no such frame");
    ("payload", "far", "Phys_mem.payload: no such frame");
    ("payload", "negative", "Phys_mem.payload: no such frame");
    ("take_frame", "never-used", "Phys_mem.take_frame: frame not in use");
    ("take_frame", "freed", "Phys_mem.take_frame: frame not in use");
    ("take_frame", "past-capacity", "Phys_mem.take_frame: no such frame");
    ("take_frame", "far", "Phys_mem.take_frame: no such frame");
    ("take_frame", "negative", "Phys_mem.take_frame: no such frame");
    ("write", "never-used", "Phys_mem.write: frame not in use");
    ("write", "freed", "Phys_mem.write: frame not in use");
    ("write", "past-capacity", "Phys_mem.write: no such frame");
    ("write", "far", "Phys_mem.write: no such frame");
    ("write", "negative", "Phys_mem.write: no such frame");
    ("set_i64", "never-used", "Phys_mem.set_i64: frame not in use");
    ("set_i64", "freed", "Phys_mem.set_i64: frame not in use");
    ("set_i64", "past-capacity", "Phys_mem.set_i64: no such frame");
    ("set_i64", "far", "Phys_mem.set_i64: no such frame");
    ("set_i64", "negative", "Phys_mem.set_i64: no such frame");
    ("fill", "never-used", "Phys_mem.fill: frame not in use");
    ("fill", "freed", "Phys_mem.fill: frame not in use");
    ("fill", "past-capacity", "Phys_mem.fill: no such frame");
    ("fill", "far", "Phys_mem.fill: no such frame");
    ("fill", "negative", "Phys_mem.fill: no such frame");
    ("copy", "never-used", "Phys_mem.copy: frame not in use");
    ("copy", "freed", "Phys_mem.copy: frame not in use");
    ("copy", "past-capacity", "Phys_mem.copy: no such frame");
    ("copy", "far", "Phys_mem.copy: no such frame");
    ("copy", "negative", "Phys_mem.copy: no such frame");
    ("copy", "overlapping-up", "Phys_mem.copy: overlapping copy up");
  ]

let test_phys_error_messages () =
  let pm = Phys_mem.create ~frames:16 in
  let used = Phys_mem.alloc_frame pm in
  Phys_mem.fill pm ~frame:used ~off:0 ~len:16 'x';
  let freed = Phys_mem.alloc_frame pm in
  Phys_mem.free_frame pm freed;
  let buf = Bytes.create 16 in
  let frame = function
    | "overlapping-up" -> used
    | "never-used" -> 9
    | "freed" -> freed
    | "past-capacity" -> 16
    | "far" -> 1000
    | "negative" -> -1
    | c -> invalid_arg c
  in
  let call fn f =
    match fn with
    | "free_frame" -> Phys_mem.free_frame pm f
    | "payload" -> ignore (Phys_mem.payload pm f)
    | "take_frame" -> ignore (Phys_mem.take_frame pm f)
    | "write" -> Phys_mem.write pm ~frame:f ~off:0 ~src:buf ~src_off:0 ~len:8
    | "set_i64" -> Phys_mem.set_i64 pm ~frame:f ~off:0 1L
    | "fill" -> Phys_mem.fill pm ~frame:f ~off:0 ~len:8 'x'
    | "copy" ->
      (* Onto [used] itself, the copy slides up over its own source. *)
      Phys_mem.copy pm ~src:(Phys_mem.payload pm used) ~src_off:0 ~frame:f
        ~off:(if f = used then 4 else 0) ~len:8
    | fn -> invalid_arg fn
  in
  List.iter
    (fun (fn, case, msg) ->
      Alcotest.check_raises (fn ^ " on a " ^ case ^ " frame") (Invalid_argument msg)
        (fun () -> call fn (frame case)))
    phys_error_cases;
  Alcotest.(check int) "errors leave the pool alone" 1 (Phys_mem.frames_in_use pm)

(* The payload against a plain page of [Bytes]: random word gets and
   sets, writes, fills, reads, copies between frames and from taken
   payloads, whole-page and line-aligned copies, takes and installs.
   Offsets are byte-granular and often straddle a 128-byte line; slides
   are same-frame copies to a lower, overlapping offset; about half the
   values written are zero.  Beside its bytes, each model page tracks
   which lines the payload must store, by the rules [Phys_mem]'s header
   states: a write stores the lines it puts a non-zero byte into; a page
   of more than 16 lines is dense and stores all 32; a whole-page copy
   stores exactly the source's lines; a copy onto a sparse page stores
   the lines a stored source line lands on and drops the whole lines it
   covers with absent ones, turning dense if it would hold more than 16
   (counted after the drop, or before it when the page copies onto
   itself).  After every operation every page must match
   its model, store exactly its model's lines (so a page that nothing
   non-zero reached stores none) and hold a payload no other page
   holds. *)
type pm_op =
  | Alloc
  | Free of int
  | Get of int * int
  | Set of int * int * int64
  | Write of int * int * string
  | Fill of int * int * int * char
  | Read of int * int * int
  | Copy of int * int * int * int * int
  | Slide of int * int * int * int
  | Page of int * int
  | Lines of int * int * int * int * int
  | Take of int
  | Install of int

let pp_pm_op = function
  | Alloc -> "alloc"
  | Free i -> Printf.sprintf "free %d" i
  | Get (i, o) -> Printf.sprintf "get %d@%d" i o
  | Set (i, o, v) -> Printf.sprintf "set %d@%d %Ld" i o v
  | Write (i, o, s) ->
    Printf.sprintf "write %d@%d len %d%s" i o (String.length s)
      (if String.for_all (( = ) '\000') s then " zeros" else "")
  | Fill (i, o, n, c) -> Printf.sprintf "fill %d@%d len %d %C" i o n c
  | Read (i, o, n) -> Printf.sprintf "read %d@%d len %d" i o n
  | Copy (s, so, d, o, n) -> Printf.sprintf "copy %d@%d -> %d@%d len %d" s so d o n
  | Slide (i, o, by, n) -> Printf.sprintf "slide %d@%d down %d len %d" i (o + by) by n
  | Page (s, d) -> Printf.sprintf "page %d -> %d" s d
  | Lines (s, sl, d, l, n) ->
    Printf.sprintf "lines %d@%d -> %d@%d count %d" s sl d l n
  | Take i -> Printf.sprintf "take %d" i
  | Install i -> Printf.sprintf "install %d" i

let pm_op_gen =
  QCheck.Gen.(
    let idx = int_bound 7 in
    let off =
      oneof
        [
          int_bound (Addr.page_size - 8);
          map2 (fun l k -> (l * 128) + 120 + k) (int_bound 30) (int_bound 7);
          int_bound 300;
        ]
    in
    let len = oneof [ int_range 1 16; int_range 1 300; int_range 1 Addr.page_size ] in
    let byte = oneof [ return '\000'; char ] in
    let data n =
      oneof [ return (String.make n '\000'); string_size ~gen:byte (return n) ]
    in
    let line = int_bound 31 in
    frequency
      [
        (2, return Alloc);
        (1, map (fun i -> Free i) idx);
        (3, map2 (fun i o -> Get (i, o)) idx off);
        ( 4,
          map3
            (fun i o v -> Set (i, o, v))
            idx off
            (oneof [ return 0L; map Int64.of_int int; ui64 ]) );
        (3, map3 (fun i o s -> Write (i, o, s)) idx off (len >>= data));
        (2, map3 (fun i o (n, c) -> Fill (i, o, n, c)) idx off (pair len byte));
        (2, map3 (fun i o n -> Read (i, o, n)) idx off len);
        ( 3,
          map3
            (fun (s, so) (d, o) n -> Copy (s, so, d, o, n))
            (pair idx off) (pair idx off) len );
        ( 3,
          map3
            (fun (i, o) by n -> Slide (i, o, by, n))
            (pair idx off) (int_range 1 256) len );
        (3, map2 (fun s d -> Page (s, d)) idx idx);
        ( 3,
          map3
            (fun (s, sl) (d, l) n -> Lines (s, sl, d, l, n))
            (pair idx line) (pair idx line) (int_range 1 32) );
        (1, map (fun i -> Take i) idx);
        (1, map (fun i -> Install i) idx);
      ])

(* The model of which lines a page stores: a 32-bit mask. *)
let pm_full = (1 lsl 32) - 1

let pm_popcount m =
  let n = ref 0 in
  for l = 0 to 31 do
    if m land (1 lsl l) <> 0 then incr n
  done;
  !n

(* [m] with the lines of the non-zero bytes of [b] written at [o]. *)
let pm_store m ~o b =
  if m = pm_full then m
  else begin
    let m = ref m in
    Bytes.iteri
      (fun k c -> if c <> '\000' then m := !m lor (1 lsl ((o + k) / 128)))
      b;
    if pm_popcount !m > 16 then pm_full else !m
  end

(* A page stored as [dm] after [n] bytes at [so] of a page stored as [sm]
   land at [o]; [self] when the page copies onto itself. *)
let pm_copy ~self ~sm ~so ~dm ~o ~n =
  if n = Addr.page_size then if self then dm else sm
  else if dm = pm_full then dm
  else begin
    let hit = ref 0 and covered = ref 0 in
    for k = 0 to n - 1 do
      if sm land (1 lsl ((so + k) / 128)) <> 0 then
        hit := !hit lor (1 lsl ((o + k) / 128))
    done;
    for l = 0 to 31 do
      if o <= l * 128 && (l + 1) * 128 <= o + n then covered := !covered lor (1 lsl l)
    done;
    let m = dm land lnot !covered lor !hit in
    if pm_popcount (if self then dm lor !hit else m) > 16 then pm_full else m
  end

let test_phys_payload_model =
  qtest ~count:300 "payload agrees with a Bytes model"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_pm_op ops))
        Gen.(list_size (int_range 1 60) pm_op_gen))
    (fun ops ->
      let pm = Phys_mem.create ~frames:6 in
      (* Model: each live frame's bytes and stored lines; taken payloads
         in hand likewise. *)
      let live = ref [] and hand = ref [] in
      let nth l i = List.nth l (i mod List.length l) in
      let clamp o n = (o, max 0 (min n (Addr.page_size - o))) in
      let ok = ref true in
      let expect what b = if not b then (ok := false; print_endline ("mismatch: " ^ what)) in
      let store (_, _, m) ~o b = m := pm_store !m ~o b in
      (* [n] bytes from source [s] (a live frame or a payload in hand) at
         [so] into live frame [d] at [o]; a same-frame copy goes down. *)
      let copy s so d o n =
        let sources =
          List.map (fun (f, b, m) -> (Phys_mem.payload pm f, b, m)) !live @ !hand
        in
        let sp, sb, sm = nth sources s in
        let f, db, dm = nth !live d in
        let so, o = if sb == db then (max so o, min so o) else (so, o) in
        Phys_mem.copy pm ~src:sp ~src_off:so ~frame:f ~off:o ~len:n;
        dm := pm_copy ~self:(sb == db) ~sm:!sm ~so ~dm:!dm ~o ~n;
        Bytes.blit sb so db o n
      in
      let check what p b m =
        let out = Bytes.create Addr.page_size in
        Phys_mem.read_into p ~off:0 ~len:Addr.page_size ~dst:out ~dst_off:0;
        expect (what ^ " contents") (Bytes.equal out b);
        expect
          (Printf.sprintf "%s stores %d lines, not %d" what (Phys_mem.lines p)
             (pm_popcount !m))
          (Phys_mem.lines p = pm_popcount !m)
      in
      List.iter
        (fun op ->
          (match op with
          | Alloc ->
            if Phys_mem.frames_in_use pm < 6 then
              live :=
                (Phys_mem.alloc_frame pm, Bytes.make Addr.page_size '\000', ref 0)
                :: !live
          | Install i when !hand <> [] ->
            let ((p, b, m) as h) = nth !hand i in
            if Phys_mem.frames_in_use pm < 6 then begin
              hand := List.filter (fun x -> x != h) !hand;
              live := (Phys_mem.alloc_frame_with pm p, b, m) :: !live
            end
          | Install _ -> ()
          | _ when !live = [] -> ()
          | Free i ->
            let ((f, _, _) as e) = nth !live i in
            Phys_mem.free_frame pm f;
            live := List.filter (fun x -> x != e) !live
          | Take i ->
            let ((f, b, m) as e) = nth !live i in
            live := List.filter (fun x -> x != e) !live;
            hand := (Phys_mem.take_frame pm f, b, m) :: !hand
          | Get (i, o) ->
            let f, b, _ = nth !live i in
            expect (pp_pm_op op)
              (Int64.equal (Bytes.get_int64_le b o)
                 (Phys_mem.get_i64 (Phys_mem.payload pm f) o))
          | Set (i, o, v) ->
            let ((f, b, _) as e) = nth !live i in
            Phys_mem.set_i64 pm ~frame:f ~off:o v;
            Bytes.set_int64_le b o v;
            store e ~o (Bytes.sub b o 8)
          | Write (i, o, s) ->
            let ((f, b, _) as e) = nth !live i in
            let o, n = clamp o (String.length s) in
            Phys_mem.write pm ~frame:f ~off:o ~src:(Bytes.of_string s) ~src_off:0
              ~len:n;
            Bytes.blit_string s 0 b o n;
            store e ~o (Bytes.sub b o n)
          | Fill (i, o, n, c) ->
            let ((f, b, _) as e) = nth !live i in
            let o, n = clamp o n in
            Phys_mem.fill pm ~frame:f ~off:o ~len:n c;
            Bytes.fill b o n c;
            store e ~o (Bytes.sub b o n)
          | Read (i, o, n) ->
            let f, b, _ = nth !live i in
            let o, n = clamp o n in
            let out = Bytes.make n '?' in
            Phys_mem.read_into (Phys_mem.payload pm f) ~off:o ~len:n ~dst:out ~dst_off:0;
            expect (pp_pm_op op) (Bytes.equal out (Bytes.sub b o n))
          | Copy (s, so, d, o, n) ->
            copy s so d o (max 0 (min n (Addr.page_size - max so o)))
          | Slide (i, o, by, n) ->
            let so = min (o + by) (Addr.page_size - 1) in
            let i = i mod List.length !live in
            copy i so i o (max 0 (min n (Addr.page_size - so)))
          | Page (s, d) -> copy s 0 d 0 Addr.page_size
          | Lines (s, sl, d, l, n) ->
            copy s (sl * 128) d (l * 128) (128 * min n (32 - max sl l)));
          (* Every page after every operation, and no payload twice. *)
          List.iter (fun (f, b, m) -> check "frame" (Phys_mem.payload pm f) b m) !live;
          List.iter (fun (p, b, m) -> check "taken payload" p b m) !hand;
          let payloads =
            Array.of_list
              (List.map (fun (f, _, _) -> Phys_mem.payload pm f) !live
              @ List.map (fun (p, _, _) -> p) !hand)
          in
          Array.iteri
            (fun i j -> expect (pp_pm_op op ^ ": a payload is shared") (i = j))
            (Phys_mem.last_alias payloads))
        ops;
      !ok)

(* --- Page_table --- *)

let test_pt_get_set () =
  let pt = Page_table.create () in
  let va = Addr.of_page 123456 in
  Alcotest.(check bool) "unmapped" false (Pte.is_present (Page_table.get_pte pt va));
  Page_table.set_pte pt va (Pte.make ~frame:9);
  Alcotest.(check int) "mapped" 9 (Pte.frame_exn (Page_table.get_pte pt va));
  Alcotest.(check (option (pair int int))) "translate" (Some (9, 17))
    (Page_table.translate pt (va + 17))

let test_pt_leaf_sharing () =
  let pt = Page_table.create () in
  let va = Addr.of_page 1000 in
  Page_table.set_pte pt va (Pte.make ~frame:1);
  Page_table.set_pte pt (va + Addr.page_size) (Pte.make ~frame:2);
  let leaf = Page_table.leaf_at pt va in
  Alcotest.(check bool) "leaf exists" true (leaf != Page_table.no_leaf);
  Alcotest.(check bool) "no leaf elsewhere" true
    (Page_table.leaf_at pt (Addr.of_page 5000) == Page_table.no_leaf);
  (* Both pages are in the same PMD region, hence the same leaf array. *)
  let ptes = Page_table.leaf_ptes leaf in
  Alcotest.(check int) "slot 1" 1 (Pte.frame_exn ptes.(Addr.pte_index va));
  Alcotest.(check int) "slot 2" 2
    (Pte.frame_exn ptes.(Addr.pte_index (va + Addr.page_size)))

let test_pt_swap_pmd_errors () =
  let pt = Page_table.create () in
  let a = Addr.of_page 512 and b = Addr.of_page 1024 in
  Page_table.set_pte pt a (Pte.make ~frame:1);
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Page_table.swap_pmd_entries: addresses must be PMD-aligned")
    (fun () -> Page_table.swap_pmd_entries pt a (b + Addr.page_size));
  Alcotest.check_raises "no leaf"
    (Invalid_argument "Page_table.swap_pmd_entries: no leaf at PMD slot")
    (fun () -> Page_table.swap_pmd_entries pt a b);
  Page_table.set_pte pt (b + Addr.page_size) (Pte.make ~frame:2);
  Page_table.swap_pmd_entries pt a b;
  Alcotest.(check int) "moved to b" 1 (Pte.frame_exn (Page_table.get_pte pt b));
  Alcotest.(check int) "moved to a" 2
    (Pte.frame_exn (Page_table.get_pte pt (a + Addr.page_size)))

let test_pt_iter_mapped () =
  let pt = Page_table.create () in
  let vpns = [ 5; 700; 1 lsl 20; (1 lsl 27) + 3 ] in
  List.iteri (fun i vpn -> Page_table.set_pte pt (Addr.of_page vpn) (Pte.make ~frame:i)) vpns;
  Alcotest.(check int) "mapped count" 4 (Page_table.mapped_pages pt);
  let seen = ref [] in
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame:_ -> seen := vpn :: !seen);
  Alcotest.(check (list int)) "vpns recovered" (List.sort compare vpns)
    (List.sort compare !seen)

module Int_map = Map.Make (Int)

type pt_op =
  | Write of int * int  (* vpn, kind: 0 none, 1 present, 2 swapped *)
  | Swap of int * int  (* ranks among the existing leaves *)

(* The walks read leaves through their presence words; they must still
   yield exactly the present (resp. swapped) entries, in ascending vpn
   order, however the leaves came to be.  Vpns cluster around bases far
   apart, and each write leaves a page present, swapped or none.  Before
   the writes, every reachable leaf may be made in descending or in
   interleaved (highest, lowest, next highest, ...) PMD order, and swaps
   of two whole leaves fall between the writes. *)
let prop_pt_walks =
  let bases = [| 0; 512; 3 * 512; 1 lsl 18; (1 lsl 27) + 7; 1 lsl 36 |] in
  let span = 600 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map3
              (fun b off kind -> Write (bases.(b) + off, kind))
              (int_bound (Array.length bases - 1))
              (int_bound span) (int_bound 2) );
          (1, map2 (fun i j -> Swap (i, j)) (int_bound 15) (int_bound 15));
        ])
  in
  let print_op = function
    | Write (vpn, kind) -> Printf.sprintf "write %d %d" vpn kind
    | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  in
  let reachable =
    Array.to_list bases
    |> List.concat_map (fun b -> [ b / 512; (b + span) / 512 ])
    |> List.sort_uniq (fun a b -> compare b a)
  in
  let rec interleave = function
    | [] -> []
    | hi :: rest -> hi :: interleave (List.rev rest)
  in
  qtest ~count:100 "walks yield the present and swapped pages in order"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_op))
       QCheck.Gen.(pair (int_bound 2) (list_size (int_range 1 300) op)))
    (fun (order, ops) ->
      let pt = Page_table.create () in
      let present = ref Int_map.empty and swapped = ref Int_map.empty in
      let leaves = ref Int_map.empty in
      let touch pmd = leaves := Int_map.add pmd () !leaves in
      let move pa pb m =
        Int_map.fold
          (fun vpn x acc ->
            let p = vpn / 512 in
            let d = if p = pa then pb - pa else if p = pb then pa - pb else 0 in
            Int_map.add (vpn + (d * 512)) x acc)
          m Int_map.empty
      in
      let first =
        match order with 0 -> [] | 1 -> reachable | _ -> interleave reachable
      in
      List.iter
        (fun pmd ->
          Page_table.set_pte pt (Addr.of_page (pmd * 512)) Pte.none;
          touch pmd)
        first;
      List.iteri
        (fun n op ->
          match op with
          | Swap (i, j) ->
            let pmds = Array.of_list (List.map fst (Int_map.bindings !leaves)) in
            let k = Array.length pmds in
            if k > 0 then begin
              let pa = pmds.(i mod k) and pb = pmds.(j mod k) in
              Page_table.swap_pmd_entries pt
                (Addr.of_page (pa * 512))
                (Addr.of_page (pb * 512));
              present := move pa pb !present;
              swapped := move pa pb !swapped
            end
          | Write (vpn, kind) -> (
            let va = Addr.of_page vpn in
            touch (vpn / 512);
            present := Int_map.remove vpn !present;
            swapped := Int_map.remove vpn !swapped;
            match kind with
            | 0 -> Page_table.set_pte pt va Pte.none
            | 1 ->
              Page_table.set_pte pt va (Pte.make ~frame:n);
              present := Int_map.add vpn n !present
            | _ ->
              Page_table.set_pte pt va (Pte.make_swapped ~slot:n);
              swapped := Int_map.add vpn n !swapped))
        ops;
      let walk iter =
        let seen = ref [] in
        iter (fun vpn x -> seen := (vpn, x) :: !seen);
        List.rev !seen
      in
      walk (fun f -> Page_table.iter_mapped pt ~f:(fun ~vpn ~frame -> f vpn frame))
      = Int_map.bindings !present
      && walk (fun f -> Page_table.iter_swapped pt ~f:(fun ~vpn ~slot -> f vpn slot))
         = Int_map.bindings !swapped
      && Page_table.mapped_pages pt = Int_map.cardinal !present
      && Page_table.swapped_pages pt = Int_map.cardinal !swapped
      && Page_table.bitset_violations pt = 0)

let prop_pt_model =
  qtest ~count:60 "page table agrees with a hashtable model"
    QCheck.(list (pair (int_range 0 5000) (int_range 0 100)))
    (fun ops ->
      let pt = Page_table.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (vpn, frame) ->
          let va = Addr.of_page vpn in
          if frame = 0 then begin
            Page_table.set_pte pt va Pte.none;
            Hashtbl.remove model vpn
          end
          else begin
            Page_table.set_pte pt va (Pte.make ~frame);
            Hashtbl.replace model vpn frame
          end)
        ops;
      Hashtbl.fold
        (fun vpn frame acc ->
          acc && Page_table.get_pte pt (Addr.of_page vpn) = Pte.make ~frame)
        model true
      && Page_table.mapped_pages pt = Hashtbl.length model)

(* --- Tlb --- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create () in
  Alcotest.(check int) "cold miss" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Tlb.insert tlb ~asid:1 ~vpn:10 ~frame:99;
  Alcotest.(check int) "hit" 99 (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Alcotest.(check int) "other asid misses" (-1)
    (Tlb.lookup tlb ~asid:2 ~vpn:10);
  let st = Tlb.stats tlb in
  Alcotest.(check int) "hits" 1 st.Tlb.hits;
  Alcotest.(check int) "misses" 2 st.Tlb.misses

let test_tlb_flush_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:2 ~vpn:2 ~frame:2;
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check int) "asid 1 gone" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check int) "asid 2 stays" 2 (Tlb.lookup tlb ~asid:2 ~vpn:2)

let test_tlb_flush_page () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:1 ~vpn:2 ~frame:2;
  Tlb.flush_page tlb ~asid:1 ~vpn:1;
  Alcotest.(check int) "flushed" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check int) "kept" 2 (Tlb.lookup tlb ~asid:1 ~vpn:2)

let test_tlb_capacity_eviction () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  (* Fill one set (vpns congruent mod 4) beyond its 2 ways. *)
  Tlb.insert tlb ~asid:1 ~vpn:0 ~frame:0;
  Tlb.insert tlb ~asid:1 ~vpn:4 ~frame:4;
  ignore (Tlb.lookup tlb ~asid:1 ~vpn:0);
  (* vpn 4 is now LRU; inserting vpn 8 must evict it. *)
  Tlb.insert tlb ~asid:1 ~vpn:8 ~frame:8;
  Alcotest.(check int) "lru evicted" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:4);
  Alcotest.(check int) "mru kept" 0 (Tlb.lookup tlb ~asid:1 ~vpn:0)

let test_tlb_occupancy () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  Alcotest.(check int) "empty" 0 (Tlb.occupied tlb);
  Tlb.insert tlb ~asid:1 ~vpn:3 ~frame:1;
  Alcotest.(check int) "one" 1 (Tlb.occupied tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "flushed" 0 (Tlb.occupied tlb)

(* Random insert / flush_page / flush_asid sequences over few asids and
   vpns, so sets overflow and entries collide: a page flush drops exactly
   its (asid, vpn), leaves every other entry valid and in place, and the
   flush counters count calls. *)
type tlb_op =
  | Insert of int * int * int
  | Flush_page of int * int
  | Flush_asid of int

let pp_tlb_op = function
  | Insert (a, v, f) -> Printf.sprintf "insert %d/%d->%d" a v f
  | Flush_page (a, v) -> Printf.sprintf "flush_page %d/%d" a v
  | Flush_asid a -> Printf.sprintf "flush_asid %d" a

let tlb_op_gen =
  QCheck.Gen.(
    let asid = int_bound 2 and vpn = int_bound 47 in
    frequency
      [
        (6, map3 (fun a v f -> Insert (a, v, f)) asid vpn (int_bound 999));
        (3, map2 (fun a v -> Flush_page (a, v)) asid vpn);
        (1, map (fun a -> Flush_asid a) asid);
      ])

let tlb_valid tlb =
  let acc = ref [] in
  Tlb.iter_valid tlb (fun ~asid ~vpn ~frame ~stamp:_ ->
      acc := (asid, vpn, frame) :: !acc);
  List.rev !acc

let prop_tlb_flush_page =
  qtest "flush_page drops exactly its (asid, vpn)"
    (QCheck.make
       ~print:QCheck.Print.(list pp_tlb_op)
       QCheck.Gen.(list_size (int_range 1 200) tlb_op_gen))
    (fun ops ->
      let tlb = Tlb.create () in
      let pages = ref 0 and asids = ref 0 in
      List.for_all
        (function
          | Insert (asid, vpn, frame) ->
            Tlb.insert tlb ~asid ~vpn ~frame;
            true
          | Flush_asid asid ->
            incr asids;
            Tlb.flush_asid tlb ~asid;
            true
          | Flush_page (asid, vpn) ->
            incr pages;
            let before = tlb_valid tlb in
            Tlb.flush_page tlb ~asid ~vpn;
            tlb_valid tlb
            = List.filter (fun (a, v, _) -> not (a = asid && v = vpn)) before)
        ops
      &&
      let st = Tlb.stats tlb in
      st.Tlb.flushes_page = !pages
      && st.Tlb.flushes_asid = !asids
      && st.Tlb.flushes_full = 0)

let test_tlb_insert_resident () =
  (* A second fill of a resident (asid, vpn) rewrites its way in place:
     the new frame wins and no second way is taken. *)
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  Tlb.insert tlb ~asid:1 ~vpn:10 ~frame:99;
  Tlb.insert tlb ~asid:1 ~vpn:10 ~frame:7;
  Alcotest.(check int) "one way" 1 (Tlb.occupied tlb);
  Alcotest.(check int) "new frame" 7 (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Tlb.flush_page tlb ~asid:1 ~vpn:10;
  Alcotest.(check int) "one flush drops it" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:10)

let test_tlb_geometry () =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "zero ways" (fun () -> Tlb.create ~ways:0 ());
  rejects "zero entries" (fun () -> Tlb.create ~entries:0 ());
  rejects "negative ways" (fun () -> Tlb.create ~entries:8 ~ways:(-2) ());
  rejects "ways do not divide entries" (fun () -> Tlb.create ~entries:10 ~ways:4 ());
  let tlb = Tlb.create () in
  rejects "negative asid" (fun () -> Tlb.insert tlb ~asid:(-1) ~vpn:0 ~frame:0);
  rejects "negative asid flush" (fun () -> Tlb.flush_asid tlb ~asid:(-1))

(* The record-based TLB the flat one replaced, kept as its reference: one
   mutable record per way, an explicit valid bit, closures over every
   entry.  Its one change is the documented fill of a resident pair,
   which rewrites that way instead of evicting another. *)
module Ref_tlb = struct
  type entry = {
    mutable valid : bool;
    mutable asid : int;
    mutable vpn : int;
    mutable frame : int;
    mutable stamp : int;
  }

  type t = { sets : entry array array; n_sets : int; mutable tick : int; st : Tlb.stats }

  let create ~entries ~ways =
    let n_sets = entries / ways in
    let fresh () = { valid = false; asid = 0; vpn = 0; frame = 0; stamp = 0 } in
    {
      sets = Array.init n_sets (fun _ -> Array.init ways (fun _ -> fresh ()));
      n_sets;
      tick = 0;
      st = { hits = 0; misses = 0; flushes_full = 0; flushes_asid = 0; flushes_page = 0 };
    }

  let set_of t vpn = t.sets.(vpn mod t.n_sets)
  let matches e ~asid ~vpn = e.valid && e.asid = asid && e.vpn = vpn

  let lookup t ~asid ~vpn =
    t.tick <- t.tick + 1;
    let frame = ref (-1) in
    Array.iter
      (fun e ->
        if matches e ~asid ~vpn then begin
          e.stamp <- t.tick;
          frame := e.frame
        end)
      (set_of t vpn);
    if !frame < 0 then t.st.misses <- t.st.misses + 1
    else t.st.hits <- t.st.hits + 1;
    !frame

  let rehit t ~asid ~vpn ~times =
    t.tick <- t.tick + times;
    let found = ref false in
    Array.iter
      (fun e ->
        if matches e ~asid ~vpn then begin
          e.stamp <- t.tick;
          found := true
        end)
      (set_of t vpn);
    if not !found then invalid_arg "Ref_tlb.rehit";
    t.st.hits <- t.st.hits + times

  let insert t ~asid ~vpn ~frame =
    t.tick <- t.tick + 1;
    let set = set_of t vpn in
    let victim =
      match Array.find_opt (matches ~asid ~vpn) set with
      | Some e -> e
      | None ->
        let victim = ref set.(0) in
        Array.iter
          (fun e ->
            if not e.valid then begin
              if !victim.valid then victim := e
            end
            else if !victim.valid && e.stamp < !victim.stamp then victim := e)
          set;
        !victim
    in
    victim.valid <- true;
    victim.asid <- asid;
    victim.vpn <- vpn;
    victim.frame <- frame;
    victim.stamp <- t.tick

  let iter_entries t f = Array.iter (fun set -> Array.iter f set) t.sets

  let flush_all t =
    t.st.flushes_full <- t.st.flushes_full + 1;
    iter_entries t (fun e -> e.valid <- false)

  let flush_asid t ~asid =
    t.st.flushes_asid <- t.st.flushes_asid + 1;
    iter_entries t (fun e -> if e.asid = asid then e.valid <- false)

  let flush_page t ~asid ~vpn =
    t.st.flushes_page <- t.st.flushes_page + 1;
    Array.iter (fun e -> if e.asid = asid && e.vpn = vpn then e.valid <- false) (set_of t vpn)

  let reset_stats t =
    t.st.hits <- 0;
    t.st.misses <- 0;
    t.st.flushes_full <- 0;
    t.st.flushes_asid <- 0;
    t.st.flushes_page <- 0

  let valid t =
    let acc = ref [] in
    iter_entries t (fun e ->
        if e.valid then acc := (e.asid, e.vpn, e.frame, e.stamp) :: !acc);
    List.rev !acc
end

type tlb_ref_op =
  | R_lookup of int * int
  | R_rehit of int * int * int
  | R_insert of int * int * int
  | R_flush_asid of int
  | R_flush_page of int * int
  | R_flush_all
  | R_reset_stats

let pp_tlb_ref_op = function
  | R_lookup (a, v) -> Printf.sprintf "lookup %d/%d" a v
  | R_rehit (a, v, n) -> Printf.sprintf "rehit %d/%d x%d" a v n
  | R_insert (a, v, f) -> Printf.sprintf "insert %d/%d->%d" a v f
  | R_flush_asid a -> Printf.sprintf "flush_asid %d" a
  | R_flush_page (a, v) -> Printf.sprintf "flush_page %d/%d" a v
  | R_flush_all -> "flush_all"
  | R_reset_stats -> "reset_stats"

(* Few asids and vpns, so sets overflow, fills repeat resident pairs and
   flushes land on both empty and full TLBs. *)
let tlb_ref_op_gen =
  QCheck.Gen.(
    let asid = int_bound 2 and vpn = int_bound 23 in
    frequency
      [
        (5, map2 (fun a v -> R_lookup (a, v)) asid vpn);
        (2, map3 (fun a v n -> R_rehit (a, v, n)) asid vpn (int_bound 5));
        (6, map3 (fun a v f -> R_insert (a, v, f)) asid vpn (int_bound 999));
        (2, map (fun a -> R_flush_asid a) asid);
        (2, map2 (fun a v -> R_flush_page (a, v)) asid vpn);
        (1, return R_flush_all);
        (1, return R_reset_stats);
      ])

let tlb_geometries = [ (8, 2); (12, 3); (16, 4); (64, 4) ]

let flat_valid tlb =
  let acc = ref [] in
  Tlb.iter_valid tlb (fun ~asid ~vpn ~frame ~stamp ->
      acc := (asid, vpn, frame, stamp) :: !acc);
  List.rev !acc

let prop_tlb_reference =
  qtest ~count:300 "flat TLB agrees with the record-based reference"
    (QCheck.make
       ~print:QCheck.Print.(pair (pair int int) (list pp_tlb_ref_op))
       QCheck.Gen.(
         pair (oneofl tlb_geometries) (list_size (int_range 1 300) tlb_ref_op_gen)))
    (fun ((entries, ways), ops) ->
      let flat = Tlb.create ~entries ~ways () in
      let model = Ref_tlb.create ~entries ~ways in
      let outcome f = match f () with r -> Ok r | exception Invalid_argument _ -> Error () in
      List.for_all
        (fun op ->
          let same =
            match op with
            | R_lookup (asid, vpn) ->
              Tlb.lookup flat ~asid ~vpn = Ref_tlb.lookup model ~asid ~vpn
            | R_rehit (asid, vpn, times) ->
              outcome (fun () -> Tlb.rehit flat ~asid ~vpn ~times)
              = outcome (fun () -> Ref_tlb.rehit model ~asid ~vpn ~times)
            | R_insert (asid, vpn, frame) ->
              Tlb.insert flat ~asid ~vpn ~frame;
              Ref_tlb.insert model ~asid ~vpn ~frame;
              true
            | R_flush_asid asid ->
              Tlb.flush_asid flat ~asid;
              Ref_tlb.flush_asid model ~asid;
              true
            | R_flush_page (asid, vpn) ->
              Tlb.flush_page flat ~asid ~vpn;
              Ref_tlb.flush_page model ~asid ~vpn;
              true
            | R_flush_all ->
              Tlb.flush_all flat;
              Ref_tlb.flush_all model;
              true
            | R_reset_stats ->
              Tlb.reset_stats flat;
              Ref_tlb.reset_stats model;
              true
          in
          let valid = Ref_tlb.valid model in
          same
          && Tlb.stats flat = model.Ref_tlb.st
          && Tlb.occupied flat = List.length valid
          && flat_valid flat = valid)
        ops
      && Tlb.entries flat = entries)

(* --- Cache_sim --- *)

let test_cache_hit_after_fill () =
  let c = Cache_sim.create ~size_bytes:4096 ~line_bytes:64 ~ways:2 () in
  Cache_sim.access c ~addr:0;
  Cache_sim.access c ~addr:0;
  let st = Cache_sim.stats c in
  Alcotest.(check int) "accesses" 2 st.Cache_sim.accesses;
  Alcotest.(check int) "one miss" 1 st.Cache_sim.misses

let test_cache_capacity_eviction () =
  (* 2 sets x 2 ways of 64B lines = 256 B cache; stream 3 lines into the
     same set and re-touch the first: it must have been evicted. *)
  let c = Cache_sim.create ~size_bytes:256 ~line_bytes:64 ~ways:2 () in
  let set_stride = 2 * 64 in
  Cache_sim.access c ~addr:0;
  Cache_sim.access c ~addr:set_stride;
  Cache_sim.access c ~addr:(2 * set_stride);
  Cache_sim.reset_stats c;
  Cache_sim.access c ~addr:0;
  Alcotest.(check int) "evicted -> miss" 1 (Cache_sim.stats c).Cache_sim.misses

let test_cache_access_range () =
  let c = Cache_sim.create () in
  Cache_sim.access_range c ~addr:0 ~len:256;
  Alcotest.(check int) "4 lines" 4 (Cache_sim.stats c).Cache_sim.accesses;
  Cache_sim.reset_stats c;
  Cache_sim.access_range c ~addr:60 ~len:8;
  Alcotest.(check int) "straddles two lines" 2 (Cache_sim.stats c).Cache_sim.accesses

let test_cache_miss_rate () =
  let c = Cache_sim.create () in
  Alcotest.(check (float 1e-9)) "no accesses" 0.0 (Cache_sim.miss_rate c);
  Cache_sim.access c ~addr:0;
  Alcotest.(check (float 1e-9)) "all miss" 100.0 (Cache_sim.miss_rate c)

(* Access and miss counts for fixed address streams, pinned to the
   eagerly built cache: building the sets on first access must not move a
   single hit.  One stream mixes a sequential sweep with scattered lines,
   the other reuses a working set half the cache's size (default) or
   twice it (64 KiB, 4 ways). *)
let test_cache_streams_pinned () =
  let scattered c =
    let x = ref 12345 in
    for i = 0 to 99_999 do
      x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
      let addr =
        if i land 3 = 0 then (i * 64) land 0xFF_FFFF else (!x lsl 3) land 0x3FF_FFFF
      in
      Cache_sim.access c ~addr
    done;
    Cache_sim.access_range c ~addr:4000 ~len:10_000
  in
  let hot c ~working_set =
    let x = ref 99 in
    for _ = 0 to 99_999 do
      x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
      Cache_sim.access c ~addr:((!x lsl 4) land (working_set - 1))
    done
  in
  let counts name run c accesses misses =
    run c;
    let st = Cache_sim.stats c in
    Alcotest.(check (pair int int)) name (accesses, misses)
      (st.Cache_sim.accesses, st.Cache_sim.misses)
  in
  let small () = Cache_sim.create ~size_bytes:65536 ~ways:4 () in
  counts "scattered, default" scattered (Cache_sim.create ()) 100157 96369;
  counts "scattered, 64 KiB" scattered (small ()) 100157 100077;
  counts "hot, default" (hot ~working_set:(4 * 1024 * 1024)) (Cache_sim.create ())
    100000 55922;
  counts "hot, 64 KiB" (hot ~working_set:(128 * 1024)) (small ()) 100000 59008

let test_cache_geometry () =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "zero ways" (fun () -> Cache_sim.create ~ways:0 ());
  rejects "zero size" (fun () -> Cache_sim.create ~size_bytes:0 ());
  rejects "negative line" (fun () -> Cache_sim.create ~line_bytes:(-64) ());
  rejects "line not a power of two" (fun () ->
      Cache_sim.create ~size_bytes:(48 * 64) ~line_bytes:48 ~ways:16 ());
  rejects "size not whole lines" (fun () -> Cache_sim.create ~size_bytes:1000 ());
  rejects "lines not whole sets" (fun () ->
      Cache_sim.create ~size_bytes:(3 * 64) ~line_bytes:64 ~ways:2 ());
  rejects "three sets" (fun () ->
      Cache_sim.create ~size_bytes:(3 * 2 * 64) ~line_bytes:64 ~ways:2 ());
  (* A way count that is not a power of two is a valid geometry. *)
  let c = Cache_sim.create ~size_bytes:(4 * 3 * 64) ~line_bytes:64 ~ways:3 () in
  List.iter (fun addr -> Cache_sim.access c ~addr) [ 0; 4 * 64; 8 * 64; 0; 12 * 64; 4 * 64 ];
  Alcotest.(check int) "three ways of one set, LRU evicted" 5
    (Cache_sim.stats c).Cache_sim.misses

(* A two-array LLC kept as the reference: tags and stamps per set, a full
   scan for the hit and another for the victim, and an unbounded clock. *)
module Ref_cache = struct
  type t = {
    tags : int array array; (* -1 = invalid *)
    stamps : int array array;
    n_sets : int;
    line : int;
    mutable tick : int;
    mutable misses : int;
  }

  let create ~size_bytes ~line_bytes ~ways =
    let n_sets = size_bytes / line_bytes / ways in
    {
      tags = Array.init n_sets (fun _ -> Array.make ways (-1));
      stamps = Array.init n_sets (fun _ -> Array.make ways 0);
      n_sets;
      line = line_bytes;
      tick = 0;
      misses = 0;
    }

  let access t ~addr =
    t.tick <- t.tick + 1;
    let line_no = addr / t.line in
    let set = line_no mod t.n_sets and tag = line_no / t.n_sets in
    let tags = t.tags.(set) and stamps = t.stamps.(set) in
    let hit = ref false in
    Array.iteri
      (fun w tg ->
        if tg = tag then begin
          hit := true;
          stamps.(w) <- t.tick
        end)
      tags;
    if not !hit then begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for w = 1 to Array.length tags - 1 do
        if tags.(w) = -1 && tags.(!victim) <> -1 then victim := w
        else if tags.(!victim) <> -1 && stamps.(w) < stamps.(!victim) then victim := w
      done;
      tags.(!victim) <- tag;
      stamps.(!victim) <- t.tick
    end
end

(* Same misses after every access, so every victim was the same way. *)
let same_misses llc model addrs =
  List.for_all
    (fun addr ->
      Cache_sim.access llc ~addr;
      Ref_cache.access model ~addr;
      (Cache_sim.stats llc).Cache_sim.misses = model.Ref_cache.misses)
    addrs

let cache_geometries =
  [ (256, 64, 2); (1024, 64, 4); (4 * 3 * 32, 32, 3); (4096, 128, 16); (65536, 64, 8) ]

let prop_cache_reference =
  qtest ~count:300 "LLC agrees with the two-array reference"
    QCheck.(
      pair (oneofl cache_geometries)
        (list_of_size Gen.(int_range 1 2000)
           (oneof [ int_bound 8191; int_bound (1 lsl 20); int_bound (1 lsl 36) ])))
    (fun ((size_bytes, line_bytes, ways), addrs) ->
      same_misses
        (Cache_sim.create ~size_bytes ~line_bytes ~ways ())
        (Ref_cache.create ~size_bytes ~line_bytes ~ways)
        addrs)

(* A tag is a plain int, so an address at 2^50 and beyond misses once,
   then hits.  A negative address is refused. *)
let test_cache_address_bounds () =
  let c = Cache_sim.create () in
  List.iter (fun addr -> Cache_sim.access c ~addr) [ 1 lsl 50; 1 lsl 50; max_int; max_int ];
  Alcotest.(check (pair int int)) "accesses, misses" (4, 2)
    (let st = Cache_sim.stats c in
     (st.Cache_sim.accesses, st.Cache_sim.misses));
  let negative = Invalid_argument "Cache_sim.access: negative address" in
  Alcotest.check_raises "access" negative (fun () -> Cache_sim.access c ~addr:(-64));
  Alcotest.check_raises "access_range" negative (fun () ->
      Cache_sim.access_range c ~addr:(-1) ~len:8)

(* --- Cost_model --- *)

let test_cost_memmove_tiers () =
  let m = Cost_model.xeon_6130 in
  let small = Cost_model.memmove_bw m ~bytes_len:4096 in
  let big = Cost_model.memmove_bw m ~bytes_len:(64 * 1024 * 1024) in
  Alcotest.(check bool) "cache tier faster" true (small > big);
  Alcotest.(check (float 1e-9)) "cache tier" m.Cost_model.cache_copy_bw small;
  Alcotest.(check bool) "big approaches dram bw" true
    (big < m.Cost_model.dram_copy_bw *. 1.2)

let test_cost_contention () =
  let m = Cost_model.xeon_6130 in
  let solo = Cost_model.contended_bw m ~streams:1 ~bw:9.0 in
  let crowded = Cost_model.contended_bw m ~streams:32 ~bw:9.0 in
  Alcotest.(check (float 1e-9)) "solo unconstrained" 9.0 solo;
  Alcotest.(check (float 1e-6)) "32 streams share the ceiling"
    (m.Cost_model.machine_copy_bw /. 32.0) crowded

let test_cost_presets_sane () =
  List.iter
    (fun (m : Cost_model.t) ->
      Alcotest.(check bool) (m.Cost_model.name ^ " positive costs") true
        (m.Cost_model.pt_entry_ns > 0.0 && m.Cost_model.syscall_ns > 0.0
        && m.Cost_model.dram_copy_bw > 0.0
        && m.Cost_model.cache_copy_bw > m.Cost_model.dram_copy_bw))
    Cost_model.presets

(* --- Clock --- *)

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 10.0;
  Clock.advance c 5.0;
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Clock.now_ns c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative delta")
    (fun () -> Clock.advance c (-1.0));
  Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Clock.now_ns c)

(* --- Machine --- *)

let test_machine_asids () =
  let m = Machine.create ~phys_mib:1 Cost_model.i5_7600 in
  let a = Machine.fresh_asid m and b = Machine.fresh_asid m in
  Alcotest.(check bool) "distinct asids" true (a <> b)

let test_machine_ipi_cost () =
  let m = Machine.create ~ncores:8 ~phys_mib:1 Cost_model.xeon_6130 in
  let cost = Machine.ipi_broadcast_cost m ~from_core:0 in
  Alcotest.(check int) "7 ipis" 7 (Perf.get m.Machine.perf Ipis_sent);
  Alcotest.(check bool) "cost = latency + acks" true
    (cost
    = m.Machine.cost.Cost_model.ipi_ns
      +. (6.0 *. m.Machine.cost.Cost_model.ipi_ack_ns))

let test_machine_single_core_ipi_free () =
  let m = Machine.create ~ncores:1 ~phys_mib:1 Cost_model.xeon_6130 in
  Alcotest.(check (float 1e-9)) "no remote cores" 0.0
    (Machine.ipi_broadcast_cost m ~from_core:0)

let test_machine_flush_all_cores () =
  let m = Machine.create ~ncores:4 ~phys_mib:1 Cost_model.xeon_6130 in
  (* Seed every core's TLB with the asid then flush everywhere. *)
  Array.iter (fun c -> Tlb.insert c.Machine.tlb ~asid:7 ~vpn:1 ~frame:1) m.Machine.cores;
  ignore (Machine.flush_tlb_all_cores m ~asid:7 ~from_core:0);
  Array.iter
    (fun c ->
      Alcotest.(check int) "invalidated" (-1)
        (Tlb.lookup c.Machine.tlb ~asid:7 ~vpn:1))
    m.Machine.cores

let test_machine_scratch_main_domain_only () =
  (* SwapVA's charge memo is one per machine; a second domain must be
     refused rather than race on its slots. *)
  let m = Machine.create ~phys_mib:1 Cost_model.xeon_6130 in
  ignore (Machine.charge_memo m);
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match Machine.charge_memo m with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "spawned domain refused" true refused;
  Alcotest.(check bool) "main domain keeps its memo" true
    (Machine.charge_memo m == Machine.charge_memo m)

(* --- Address_space --- *)

let machine () = Machine.create ~phys_mib:32 Cost_model.xeon_6130

let test_as_map_rw () =
  let aspace = Address_space.create (machine ()) in
  let va = 1 lsl 30 in
  Address_space.map_range aspace ~va ~pages:4;
  Alcotest.(check int) "mapped" 4 (Address_space.mapped_pages aspace);
  Address_space.write_bytes aspace ~va:(va + 100) ~src:(Bytes.of_string "svagc");
  Alcotest.(check string) "readback" "svagc"
    (Bytes.to_string (Address_space.read_bytes aspace ~va:(va + 100) ~len:5))

let test_as_cross_page_io () =
  let aspace = Address_space.create (machine ()) in
  let va = 1 lsl 30 in
  Address_space.map_range aspace ~va ~pages:2;
  let data = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
  let start = va + Addr.page_size - 500 in
  Address_space.write_bytes aspace ~va:start ~src:data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Address_space.read_bytes aspace ~va:start ~len:1000)

let test_as_unmapped_errors () =
  let aspace = Address_space.create (machine ()) in
  Alcotest.(check bool) "raises on unmapped read" true
    (try
       ignore (Address_space.read_bytes aspace ~va:4096 ~len:1);
       false
     with Invalid_argument _ -> true)

let test_as_double_map_rejected () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:8192 ~pages:1;
  Alcotest.(check bool) "double map rejected" true
    (try
       Address_space.map_range aspace ~va:8192 ~pages:1;
       false
     with Invalid_argument _ -> true)

let test_as_unmap_frees_frames () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:3;
  let used = Phys_mem.frames_in_use m.Machine.phys in
  Address_space.unmap_range aspace ~va:4096 ~pages:3;
  Alcotest.(check int) "frames returned" (used - 3)
    (Phys_mem.frames_in_use m.Machine.phys)

let test_as_checksum_sensitivity () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:4096 ~pages:1;
  let c0 = Address_space.checksum aspace ~va:4096 ~len:4096 in
  Address_space.write_u8 aspace ~va:5000 1;
  let c1 = Address_space.checksum aspace ~va:4096 ~len:4096 in
  Alcotest.(check bool) "checksum changes" true (c0 <> c1)

let test_as_i64_roundtrip () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:4096 ~pages:2;
  (* Straddle the page boundary on purpose. *)
  Address_space.write_i64 aspace ~va:8190 0x1122334455667788L;
  Alcotest.(check int64) "i64 roundtrip" 0x1122334455667788L
    (Address_space.read_i64 aspace ~va:8190)

let test_as_touch_counts () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:1;
  Address_space.touch aspace ~core:0 ~va:4096;
  Address_space.touch aspace ~core:0 ~va:4096;
  let st = Tlb.stats (Machine.core m 0).Machine.tlb in
  Alcotest.(check int) "tlb: one miss then one hit" 1 st.Tlb.misses;
  Alcotest.(check int) "tlb hit" 1 st.Tlb.hits;
  Alcotest.(check int) "llc accesses" 2 (Cache_sim.stats m.Machine.llc).Cache_sim.accesses

let prop_as_fill_checksum_deterministic =
  qtest ~count:40 "address space: same writes, same checksum"
    QCheck.(int_range 1 6)
    (fun pages ->
      let mk () =
        let aspace = Address_space.create (machine ()) in
        Address_space.map_range aspace ~va:4096 ~pages;
        Address_space.fill aspace ~va:4096 ~len:(pages * 4096) 'x';
        Address_space.checksum aspace ~va:4096 ~len:(pages * 4096)
      in
      mk () = mk ())

(* [touch_range] against a per-line reference: each cache line of the
   range through [touch], one TLB lookup per line.  Ranges start anywhere
   in a region of 96 pages, more than the TLB's 64 entries, so the
   sequences cross pages and evict. *)
let touch_region_pages = 96

let touch_lines aspace ~core ~va ~len =
  let line = Cache_sim.line_bytes (Address_space.machine aspace).Machine.llc in
  let pos = ref (if len > 0 then va - (va mod line) else va) in
  while !pos < va + len do
    Address_space.touch aspace ~core ~va:!pos;
    pos := !pos + line
  done

let touched_state m =
  let tlb = (Machine.core m 0).Machine.tlb in
  let st = Tlb.stats tlb in
  let entries = ref [] in
  Tlb.iter_valid tlb (fun ~asid ~vpn ~frame ~stamp ->
      entries := (asid, vpn, frame, stamp) :: !entries);
  let llc = Cache_sim.stats m.Machine.llc in
  ( (st.Tlb.hits, st.Tlb.misses),
    List.rev !entries,
    (llc.Cache_sim.accesses, llc.Cache_sim.misses) )

let prop_as_touch_range_per_line =
  qtest ~count:60 "touch_range matches per-line touches"
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (pair (int_bound ((touch_region_pages * 4096) - 1)) (int_bound (3 * 4096))))
    (fun ranges ->
      let replay touch =
        let m = machine () in
        let aspace = Address_space.create m in
        Address_space.map_range aspace ~va:4096 ~pages:touch_region_pages;
        List.iter
          (fun (off, len) ->
            let len = min len ((touch_region_pages * 4096) - off) in
            touch aspace ~core:0 ~va:(4096 + off) ~len)
          ranges;
        touched_state m
      in
      replay touch_lines = replay Address_space.touch_range)

(* --- Perf --- *)

let bump_some_counters p =
  Perf.bump p Syscalls 3;
  Perf.bump p Swapva_calls 2;
  Perf.bump p Bytes_copied 4096;
  Perf.bump p Ipis_sent 7;
  Perf.bump p Alloc_bytes (1 lsl 20)

let test_perf_copy_is_snapshot () =
  let p = Perf.create () in
  bump_some_counters p;
  let snap = Perf.copy p in
  Perf.reset p;
  Perf.bump p Syscalls 100;
  Alcotest.(check int) "copy unaffected by later writes" 3 (Perf.get snap Syscalls);
  Alcotest.(check int) "copy keeps bytes" 4096 (Perf.get snap Bytes_copied);
  Alcotest.(check bool) "copy equals original field-wise" true
    (Perf.to_assoc snap
    = [
        ("syscalls", 3); ("swapva_calls", 2); ("memmove_calls", 0);
        ("ptes_swapped", 0); ("pt_walks", 0); ("pmd_cache_hits", 0);
        ("leaf_runs", 0); ("runs_coalesced", 0); ("pmd_leaf_swaps", 0);
        ("bytes_copied", 4096); ("bytes_remapped", 0); ("tlb_flush_local", 0);
        ("tlb_flush_page", 0); ("tlb_flush_all", 0); ("ipis_sent", 7);
        ("ipis_lost", 0);
        ("shootdown_broadcasts", 0); ("pins", 0); ("gc_cycles", 0);
        ("swap_retries", 0); ("swap_fallbacks", 0); ("alloc_waste_bytes", 0);
        ("alloc_bytes", 1 lsl 20);
        ("pages_swapped_out", 0); ("pages_swapped_in", 0); ("major_faults", 0);
        ("reclaim_scans", 0); ("kswapd_wakes", 0); ("swap_io_errors", 0);
        ("tier_demotions", 0); ("tier_promotions", 0);
        ("admission_rejects", 0); ("sched_scheduled", 0);
        ("sched_dispatched", 0); ("sched_cancelled", 0);
      ])

let test_perf_reset () =
  let p = Perf.create () in
  bump_some_counters p;
  Perf.reset p;
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    (Perf.to_assoc p)

let test_perf_diff_roundtrip () =
  let p = Perf.create () in
  bump_some_counters p;
  let before = Perf.copy p in
  Perf.bump p Syscalls 10;
  Perf.bump p Ipis_sent 1;
  let d = Perf.diff ~after:p ~before in
  Alcotest.(check int) "syscall delta" 10 (Perf.get d Syscalls);
  Alcotest.(check int) "ipi delta" 1 (Perf.get d Ipis_sent);
  Alcotest.(check int) "untouched delta" 0 (Perf.get d Bytes_copied);
  (* before + diff = after, field by field *)
  List.iter2
    (fun (name, b) ((_, d), (_, a)) ->
      Alcotest.(check int) (name ^ " recomposes") a (b + d))
    (Perf.to_assoc before)
    (List.combine (Perf.to_assoc d) (Perf.to_assoc p))

let test_perf_diff_self_is_zero () =
  let p = Perf.create () in
  bump_some_counters p;
  let d = Perf.diff ~after:p ~before:p in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " self-diff") 0 v)
    (Perf.to_assoc d)

let test_perf_to_assoc_covers_all_counters () =
  let names = List.map fst (Perf.to_assoc (Perf.create ())) in
  Alcotest.(check int) "35 counters" 35 (List.length names);
  Alcotest.(check int) "no duplicate names" 35
    (List.length (List.sort_uniq compare names))

(* A constructor and its name-table entry can drift apart: bump each
   counter alone and check that [to_assoc] reports the value at the
   counter's declaration position, and nowhere else.  Together with the
   names pinned above, that ties each constructor to its name. *)
let test_perf_bump_lands_at_its_position () =
  Alcotest.(check int) "every counter listed" 35 (List.length Perf.all);
  List.iteri
    (fun pos c ->
      let p = Perf.create () in
      let v = 1000 + pos in
      Perf.bump p c v;
      Alcotest.(check int) "get reads the bump" v (Perf.get p c);
      List.iteri
        (fun k (name, x) ->
          Alcotest.(check int)
            (Printf.sprintf "%s after bumping counter #%d" name pos)
            (if k = pos then v else 0)
            x)
        (Perf.to_assoc p))
    Perf.all

(* Shard merge: [add] folds per-shard deltas into a total, counter by
   counter, in either order. *)
let test_perf_add_merges_shards () =
  let a = Perf.create () and b = Perf.create () in
  bump_some_counters a;
  Perf.bump b Syscalls 5;
  Perf.bump b Sched_cancelled 2;
  let ab = Perf.create () and ba = Perf.create () in
  Perf.add ~into:ab a;
  Perf.add ~into:ab b;
  Perf.add ~into:ba b;
  Perf.add ~into:ba a;
  Alcotest.(check int) "summed" 8 (Perf.get ab Syscalls);
  Alcotest.(check int) "one side only" 2 (Perf.get ab Sched_cancelled);
  Alcotest.(check (list (pair string int)))
    "order-independent" (Perf.to_assoc ab) (Perf.to_assoc ba);
  List.iter2
    (fun ((name, x), (_, y)) (_, total) ->
      Alcotest.(check int) (name ^ " merged") (x + y) total)
    (List.combine (Perf.to_assoc a) (Perf.to_assoc b))
    (Perf.to_assoc ab)

let () =
  Alcotest.run "svagc_vmem"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "align" `Quick test_addr_align;
          Alcotest.test_case "pages_spanned" `Quick test_addr_pages_spanned;
          Alcotest.test_case "indices" `Quick test_addr_indices;
          prop_addr_roundtrip;
          prop_addr_align_up_invariants;
        ] );
      ("pte", [ Alcotest.test_case "encode/decode" `Quick test_pte ]);
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "out of frames" `Quick test_phys_out_of_frames;
          Alcotest.test_case "read/write" `Quick test_phys_read_write;
          Alcotest.test_case "blit" `Quick test_phys_blit;
          Alcotest.test_case "range check" `Quick test_phys_range_check;
          Alcotest.test_case "handout order" `Quick test_phys_handout_order;
          Alcotest.test_case "error messages" `Quick test_phys_error_messages;
          test_phys_payload_model;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "get/set/translate" `Quick test_pt_get_set;
          Alcotest.test_case "leaf sharing" `Quick test_pt_leaf_sharing;
          Alcotest.test_case "swap_pmd_entries errors" `Quick test_pt_swap_pmd_errors;
          Alcotest.test_case "iter mapped" `Quick test_pt_iter_mapped;
          prop_pt_walks;
          prop_pt_model;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "flush asid" `Quick test_tlb_flush_asid;
          Alcotest.test_case "flush page" `Quick test_tlb_flush_page;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_capacity_eviction;
          Alcotest.test_case "occupancy" `Quick test_tlb_occupancy;
          prop_tlb_flush_page;
          Alcotest.test_case "fill of a resident pair" `Quick test_tlb_insert_resident;
          Alcotest.test_case "geometry checked" `Quick test_tlb_geometry;
          prop_tlb_reference;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "access range" `Quick test_cache_access_range;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "pinned streams" `Quick test_cache_streams_pinned;
          Alcotest.test_case "geometry checked" `Quick test_cache_geometry;
          prop_cache_reference;
          Alcotest.test_case "address bounds" `Quick test_cache_address_bounds;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "memmove tiers" `Quick test_cost_memmove_tiers;
          Alcotest.test_case "contention" `Quick test_cost_contention;
          Alcotest.test_case "presets sane" `Quick test_cost_presets_sane;
        ] );
      ("clock", [ Alcotest.test_case "advance/reset" `Quick test_clock ]);
      ( "machine",
        [
          Alcotest.test_case "asids" `Quick test_machine_asids;
          Alcotest.test_case "ipi broadcast cost" `Quick test_machine_ipi_cost;
          Alcotest.test_case "single-core ipi free" `Quick test_machine_single_core_ipi_free;
          Alcotest.test_case "flush all cores" `Quick test_machine_flush_all_cores;
          Alcotest.test_case "scratch is main-domain only" `Quick
            test_machine_scratch_main_domain_only;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "map/read/write" `Quick test_as_map_rw;
          Alcotest.test_case "cross-page io" `Quick test_as_cross_page_io;
          Alcotest.test_case "unmapped errors" `Quick test_as_unmapped_errors;
          Alcotest.test_case "double map rejected" `Quick test_as_double_map_rejected;
          Alcotest.test_case "unmap frees frames" `Quick test_as_unmap_frees_frames;
          Alcotest.test_case "checksum sensitivity" `Quick test_as_checksum_sensitivity;
          Alcotest.test_case "i64 roundtrip" `Quick test_as_i64_roundtrip;
          Alcotest.test_case "touch counts" `Quick test_as_touch_counts;
          prop_as_touch_range_per_line;
          prop_as_fill_checksum_deterministic;
        ] );
      ( "perf",
        [
          Alcotest.test_case "copy is a snapshot" `Quick test_perf_copy_is_snapshot;
          Alcotest.test_case "reset zeroes" `Quick test_perf_reset;
          Alcotest.test_case "diff round-trip" `Quick test_perf_diff_roundtrip;
          Alcotest.test_case "self-diff is zero" `Quick test_perf_diff_self_is_zero;
          Alcotest.test_case "to_assoc covers counters" `Quick
            test_perf_to_assoc_covers_all_counters;
          Alcotest.test_case "bump lands at its position" `Quick
            test_perf_bump_lands_at_its_position;
          Alcotest.test_case "add merges shards" `Quick
            test_perf_add_merges_shards;
        ] );
    ]
