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
  (* A known decomposition: vpn = pte + 512*pmd + 512^2*pud + ... *)
  let va = Addr.of_page ((3 * 512 * 512) + (5 * 512) + 7) in
  Alcotest.(check int) "pte" 7 (Addr.pte_index va);
  Alcotest.(check int) "pmd" 5 (Addr.pmd_index va);
  Alcotest.(check int) "pud" 3 (Addr.pud_index va);
  Alcotest.(check int) "p4d" 0 (Addr.p4d_index va)

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

let test_phys_read_write () =
  let pm = Phys_mem.create ~frames:2 in
  let f = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:f ~off:100 ~src:(Bytes.of_string "hello") ~src_off:0
    ~len:5;
  Alcotest.(check string) "readback" "hello"
    (Bytes.to_string (Phys_mem.read pm ~frame:f ~off:100 ~len:5));
  Alcotest.(check string) "zero fill" "\000"
    (Bytes.to_string (Phys_mem.read pm ~frame:f ~off:0 ~len:1))

let test_phys_blit () =
  let pm = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc_frame pm and b = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:a ~off:0 ~src:(Bytes.of_string "xyz") ~src_off:0 ~len:3;
  Phys_mem.blit pm ~src_frame:a ~src_off:0 ~dst_frame:b ~dst_off:10 ~len:3;
  Alcotest.(check string) "blitted" "xyz"
    (Bytes.to_string (Phys_mem.read pm ~frame:b ~off:10 ~len:3))

let test_phys_range_check () =
  let pm = Phys_mem.create ~frames:1 in
  let f = Phys_mem.alloc_frame pm in
  Alcotest.check_raises "escape" (Invalid_argument "Phys_mem: range escapes the page")
    (fun () -> ignore (Phys_mem.read pm ~frame:f ~off:4090 ~len:10))

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
  let with_data = Phys_mem.alloc_frame_with pm (Some (Bytes.make 4096 'x')) in
  log := string_of_int with_data :: !log;
  (match Phys_mem.take_frame pm 2 with
  | Some _ -> log := "take 2: data" :: !log
  | None -> log := "take 2: zero" :: !log);
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

let phys_error_cases =
  [
    ("free_frame", "never-used", "Phys_mem.free_frame: frame not in use");
    ("free_frame", "freed", "Phys_mem.free_frame: frame not in use");
    ("free_frame", "past-capacity", "index out of bounds");
    ("free_frame", "far", "index out of bounds");
    ("free_frame", "negative", "index out of bounds");
    ("frame_contents", "never-used", "Phys_mem.frame_contents: frame not in use");
    ("frame_contents", "freed", "Phys_mem.frame_contents: frame not in use");
    ("frame_contents", "past-capacity", "Phys_mem.frame_contents: no such frame");
    ("frame_contents", "far", "Phys_mem.frame_contents: no such frame");
    ("frame_contents", "negative", "Phys_mem.frame_contents: no such frame");
    ("frame_bytes", "never-used", "Phys_mem.frame_bytes: frame not in use");
    ("frame_bytes", "freed", "Phys_mem.frame_bytes: frame not in use");
    ("frame_bytes", "past-capacity", "Phys_mem.frame_bytes: no such frame");
    ("frame_bytes", "far", "Phys_mem.frame_bytes: no such frame");
    ("frame_bytes", "negative", "Phys_mem.frame_bytes: no such frame");
    ("take_frame", "never-used", "Phys_mem.frame_contents: frame not in use");
    ("take_frame", "freed", "Phys_mem.frame_contents: frame not in use");
    ("take_frame", "past-capacity", "Phys_mem.frame_contents: no such frame");
    ("take_frame", "far", "Phys_mem.frame_contents: no such frame");
    ("take_frame", "negative", "Phys_mem.frame_contents: no such frame");
    ("read", "never-used", "Phys_mem.frame_bytes: frame not in use");
    ("read", "freed", "Phys_mem.frame_bytes: frame not in use");
    ("read", "past-capacity", "Phys_mem.frame_bytes: no such frame");
    ("read", "far", "Phys_mem.frame_bytes: no such frame");
    ("read", "negative", "Phys_mem.frame_bytes: no such frame");
    ("read_into", "never-used", "Phys_mem.read_into: frame not in use");
    ("read_into", "freed", "Phys_mem.read_into: frame not in use");
    ("read_into", "past-capacity", "index out of bounds");
    ("read_into", "far", "index out of bounds");
    ("read_into", "negative", "index out of bounds");
    ("write", "never-used", "Phys_mem.frame_bytes: frame not in use");
    ("write", "freed", "Phys_mem.frame_bytes: frame not in use");
    ("write", "past-capacity", "Phys_mem.frame_bytes: no such frame");
    ("write", "far", "Phys_mem.frame_bytes: no such frame");
    ("write", "negative", "Phys_mem.frame_bytes: no such frame");
    ("blit src", "never-used", "Phys_mem.frame_bytes: frame not in use");
    ("blit src", "freed", "Phys_mem.frame_bytes: frame not in use");
    ("blit src", "past-capacity", "Phys_mem.frame_bytes: no such frame");
    ("blit src", "far", "Phys_mem.frame_bytes: no such frame");
    ("blit src", "negative", "Phys_mem.frame_bytes: no such frame");
    ("blit dst", "never-used", "Phys_mem.frame_bytes: frame not in use");
    ("blit dst", "freed", "Phys_mem.frame_bytes: frame not in use");
    ("blit dst", "past-capacity", "Phys_mem.frame_bytes: no such frame");
    ("blit dst", "far", "Phys_mem.frame_bytes: no such frame");
    ("blit dst", "negative", "Phys_mem.frame_bytes: no such frame");
  ]

let test_phys_error_messages () =
  let pm = Phys_mem.create ~frames:16 in
  let used = Phys_mem.alloc_frame pm in
  let freed = Phys_mem.alloc_frame pm in
  Phys_mem.free_frame pm freed;
  let buf = Bytes.create 16 in
  let frame = function
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
    | "frame_contents" -> ignore (Phys_mem.frame_contents pm f)
    | "frame_bytes" -> ignore (Phys_mem.frame_bytes pm f)
    | "take_frame" -> ignore (Phys_mem.take_frame pm f)
    | "read" -> ignore (Phys_mem.read pm ~frame:f ~off:0 ~len:8)
    | "read_into" -> Phys_mem.read_into pm ~frame:f ~off:0 ~len:8 ~dst:buf ~dst_off:0
    | "write" -> Phys_mem.write pm ~frame:f ~off:0 ~src:buf ~src_off:0 ~len:8
    | "blit src" ->
      Phys_mem.blit pm ~src_frame:f ~src_off:0 ~dst_frame:used ~dst_off:0 ~len:8
    | "blit dst" ->
      Phys_mem.blit pm ~src_frame:used ~src_off:0 ~dst_frame:f ~dst_off:0 ~len:8
    | fn -> invalid_arg fn
  in
  List.iter
    (fun (fn, case, msg) ->
      Alcotest.check_raises (fn ^ " on a " ^ case ^ " frame") (Invalid_argument msg)
        (fun () -> call fn (frame case)))
    phys_error_cases;
  Alcotest.(check int) "errors leave the pool alone" 1 (Phys_mem.frames_in_use pm)

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
  match Page_table.find_leaf pt va with
  | None -> Alcotest.fail "leaf missing"
  | Some leaf ->
    (* Both pages are in the same PMD region, hence the same leaf array. *)
    Alcotest.(check int) "slot 1" 1 (Pte.frame_exn leaf.(Addr.pte_index va));
    Alcotest.(check int) "slot 2" 2
      (Pte.frame_exn leaf.(Addr.pte_index (va + Addr.page_size)))

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

(* The walks read leaves through their presence words; they must still
   yield exactly the present (resp. swapped) entries, in ascending vpn
   order.  Vpns cluster around bases in different leaves, PMDs, PUDs and
   PGD slots, and each write leaves a page present, swapped or none. *)
let prop_pt_walks =
  let bases = [| 0; 512; 3 * 512; 1 lsl 18; (1 lsl 27) + 7; 1 lsl 36 |] in
  let write =
    QCheck.Gen.(
      map3
        (fun b off kind -> (bases.(b) + off, kind))
        (int_bound (Array.length bases - 1))
        (int_bound 600) (int_bound 2))
  in
  qtest ~count:100 "walks yield the present and swapped pages in order"
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(list_size (int_range 1 300) write))
    (fun writes ->
      let pt = Page_table.create () in
      let present = ref Int_map.empty and swapped = ref Int_map.empty in
      List.iteri
        (fun n (vpn, kind) ->
          let va = Addr.of_page vpn in
          present := Int_map.remove vpn !present;
          swapped := Int_map.remove vpn !swapped;
          match kind with
          | 0 -> Page_table.set_pte pt va Pte.none
          | 1 ->
            Page_table.set_pte pt va (Pte.make ~frame:n);
            present := Int_map.add vpn n !present
          | _ ->
            Page_table.set_pte pt va (Pte.make_swapped ~slot:n);
            swapped := Int_map.add vpn n !swapped)
        writes;
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
  Alcotest.(check (option int)) "cold miss" None (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Tlb.insert tlb ~asid:1 ~vpn:10 ~frame:99;
  Alcotest.(check (option int)) "hit" (Some 99) (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Alcotest.(check (option int)) "other asid misses" None
    (Tlb.lookup tlb ~asid:2 ~vpn:10);
  let st = Tlb.stats tlb in
  Alcotest.(check int) "hits" 1 st.Tlb.hits;
  Alcotest.(check int) "misses" 2 st.Tlb.misses

let test_tlb_flush_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:2 ~vpn:2 ~frame:2;
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check (option int)) "asid 1 gone" None (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check (option int)) "asid 2 stays" (Some 2) (Tlb.lookup tlb ~asid:2 ~vpn:2)

let test_tlb_flush_page () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:1 ~vpn:2 ~frame:2;
  Tlb.flush_page tlb ~asid:1 ~vpn:1;
  Alcotest.(check (option int)) "flushed" None (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check (option int)) "kept" (Some 2) (Tlb.lookup tlb ~asid:1 ~vpn:2)

let test_tlb_capacity_eviction () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  (* Fill one set (vpns congruent mod 4) beyond its 2 ways. *)
  Tlb.insert tlb ~asid:1 ~vpn:0 ~frame:0;
  Tlb.insert tlb ~asid:1 ~vpn:4 ~frame:4;
  ignore (Tlb.lookup tlb ~asid:1 ~vpn:0);
  (* vpn 4 is now LRU; inserting vpn 8 must evict it. *)
  Tlb.insert tlb ~asid:1 ~vpn:8 ~frame:8;
  Alcotest.(check (option int)) "lru evicted" None (Tlb.lookup tlb ~asid:1 ~vpn:4);
  Alcotest.(check (option int)) "mru kept" (Some 0) (Tlb.lookup tlb ~asid:1 ~vpn:0)

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
  Tlb.iter_valid tlb (fun ~asid ~vpn ~frame -> acc := (asid, vpn, frame) :: !acc);
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
      Alcotest.(check (option int)) "invalidated" None
        (Tlb.lookup c.Machine.tlb ~asid:7 ~vpn:1))
    m.Machine.cores

let test_machine_scratch_main_domain_only () =
  (* SwapVA's scratch is one per machine; a second domain must be refused
     rather than share its half-built run lists. *)
  let m = Machine.create ~phys_mib:1 Cost_model.xeon_6130 in
  ignore (Machine.hot_scratch m);
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match Machine.hot_scratch m with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "spawned domain refused" true refused;
  Alcotest.(check bool) "main domain keeps its scratch" true
    (Machine.hot_scratch m == Machine.hot_scratch m)

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
        ] );
      ( "page_table",
        [
          Alcotest.test_case "get/set/translate" `Quick test_pt_get_set;
          Alcotest.test_case "leaf sharing" `Quick test_pt_leaf_sharing;
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
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "access range" `Quick test_cache_access_range;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "pinned streams" `Quick test_cache_streams_pinned;
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
