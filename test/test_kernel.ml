(* Tests for the kernel substrate: memmove, SwapVA (Algorithm 1),
   overlapping swaps (Algorithm 2), aggregation, PMD caching, shootdown
   policies and processes. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Memmove = Svagc_kernel.Memmove
module Swapva = Svagc_kernel.Swapva
module Swap_overlap = Svagc_kernel.Swap_overlap
module Shootdown = Svagc_kernel.Shootdown
module Kernel_error = Svagc_fault.Kernel_error

(* Unwrap an overlap-swap result in tests that expect success. *)
let overlap_exn = function
  | Ok ns -> ns
  | Error e -> Alcotest.failf "Swap_overlap: %s" (Kernel_error.to_string e)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let fresh ?(ncores = 4) () =
  let machine = Machine.create ~ncores ~phys_mib:64 Cost_model.xeon_6130 in
  (machine, Process.create machine)

let base = 1 lsl 30

(* Map [pages] pages at [base] and fill each with a distinct byte. *)
let mapped_window proc ~pages =
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages;
  for i = 0 to pages - 1 do
    Address_space.fill aspace ~va:(base + (i * Addr.page_size)) ~len:Addr.page_size
      (Char.chr (65 + (i mod 26)))
  done;
  aspace

let page_byte aspace i = Address_space.read_u8 aspace ~va:(base + (i * Addr.page_size))

(* --- Memmove --- *)

let test_memmove_disjoint () =
  let _, proc = fresh () in
  let aspace = mapped_window proc ~pages:4 in
  let cost =
    Memmove.move ~streams:1 aspace ~src:base ~dst:(base + (2 * Addr.page_size))
      ~len:4096
  in
  Alcotest.(check bool) "positive cost" true (cost > 0.0);
  Alcotest.(check int) "copied" (Char.code 'A') (page_byte aspace 2)

let test_memmove_overlap_semantics () =
  let _, proc = fresh () in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:2;
  Address_space.write_bytes aspace ~va:base ~src:(Bytes.of_string "abcdef");
  (* Overlapping forward copy: memmove semantics must preserve source. *)
  ignore (Memmove.move ~streams:1 aspace ~src:base ~dst:(base + 2) ~len:6);
  Alcotest.(check string) "memmove overlap" "ababcdef"
    (Bytes.to_string (Address_space.read_bytes aspace ~va:base ~len:8))

(* A 6-page window and moves of up to 3 pages, so chunks split at source
   and destination page boundaries alike, in both overlap directions.
   Pages whose bit is clear in [written] are never written: they stay
   lazily zero and are copied as zeroes. *)
let prop_memmove_matches_bytes_blit =
  let pages = 6 in
  let window = pages * Addr.page_size in
  let gen =
    QCheck.Gen.(
      int_range 0 (3 * Addr.page_size) >>= fun len ->
      quad (int_bound (window - len)) (int_bound (window - len)) (return len)
        (int_bound ((1 lsl pages) - 1)))
  in
  qtest ~count:200 "memmove agrees with Bytes.blit on random ranges"
    (QCheck.make ~print:QCheck.Print.(quad int int int int) gen)
    (fun (src_off, dst_off, len, written) ->
      let _, proc = fresh () in
      let aspace = Process.aspace proc in
      Address_space.map_range aspace ~va:base ~pages;
      let is_written i = written land (1 lsl (i / Addr.page_size)) <> 0 in
      let model =
        Bytes.init window (fun i ->
            if is_written i then Char.chr (1 + (i * 31 mod 255)) else '\000')
      in
      for p = 0 to pages - 1 do
        if is_written (p * Addr.page_size) then
          Address_space.write_bytes aspace
            ~va:(base + (p * Addr.page_size))
            ~src:(Bytes.sub model (p * Addr.page_size) Addr.page_size)
      done;
      ignore
        (Memmove.move ~streams:1 aspace ~src:(base + src_off)
           ~dst:(base + dst_off) ~len);
      Bytes.blit model src_off model dst_off len;
      Bytes.equal model (Address_space.peek_bytes aspace ~va:base ~len:window))

let test_memmove_cost_scales () =
  let machine, _ = fresh () in
  let small = Memmove.cost_ns machine ~streams:1 ~len:4096 in
  let large = Memmove.cost_ns machine ~streams:1 ~len:(4096 * 100) in
  Alcotest.(check bool) "monotone" true (large > small *. 50.0)

let test_memmove_cold_slower () =
  let machine, _ = fresh () in
  let hot = Memmove.cost_ns machine ~streams:1 ~len:65536 in
  let cold = Memmove.cost_ns ~cold:true machine ~streams:1 ~len:65536 in
  Alcotest.(check bool) "cold copies run at DRAM tier" true (cold > hot)

(* --- Swapva: disjoint (Algorithm 1) --- *)

let opts_pinned = { Swapva.pmd_caching = true; flush = Shootdown.Local_pinned }

let test_swap_exchanges_contents () =
  let _, proc = fresh () in
  let aspace = mapped_window proc ~pages:8 in
  let before0 = page_byte aspace 0 and before4 = page_byte aspace 4 in
  ignore
    (Swapva.swap proc ~opts:opts_pinned ~src:base
       ~dst:(base + (4 * Addr.page_size)) ~pages:4);
  Alcotest.(check int) "page 0 now holds old page 4" before4 (page_byte aspace 0);
  Alcotest.(check int) "page 4 now holds old page 0" before0 (page_byte aspace 4)

let test_swap_is_involution () =
  let _, proc = fresh () in
  let aspace = mapped_window proc ~pages:8 in
  let checksum () = Address_space.checksum aspace ~va:base ~len:(8 * Addr.page_size) in
  let c0 = checksum () in
  let dst = base + (4 * Addr.page_size) in
  ignore (Swapva.swap proc ~opts:opts_pinned ~src:base ~dst ~pages:4);
  let c1 = checksum () in
  ignore (Swapva.swap proc ~opts:opts_pinned ~src:base ~dst ~pages:4);
  Alcotest.(check bool) "swap changed the window" true (c0 <> c1);
  Alcotest.(check int64) "double swap restores" c0 (checksum ())

let test_swap_zero_copy () =
  let machine, proc = fresh () in
  let _ = mapped_window proc ~pages:8 in
  let before = Perf.get machine.Machine.perf Bytes_copied in
  ignore
    (Swapva.swap proc ~opts:opts_pinned ~src:base
       ~dst:(base + (4 * Addr.page_size)) ~pages:4);
  Alcotest.(check int) "no bytes copied" before (Perf.get machine.Machine.perf Bytes_copied);
  Alcotest.(check int) "bytes remapped" (4 * Addr.page_size)
    (Perf.get machine.Machine.perf Bytes_remapped)

let test_swap_validation () =
  let _, proc = fresh () in
  let _ = mapped_window proc ~pages:4 in
  let check_error name expected f =
    let got =
      try
        ignore (f ());
        None
      with Kernel_error.Fault_ns (e, spent) ->
        Alcotest.(check bool) (name ^ ": failed call still costs time") true
          (spent > 0.0);
        Some e
    in
    Alcotest.(check (option (testable Kernel_error.pp Kernel_error.equal)))
      name (Some expected) got
  in
  check_error "unaligned"
    (Kernel_error.EINVAL_unaligned { va = base + 1 })
    (fun () ->
      Swapva.swap proc ~opts:opts_pinned ~src:(base + 1)
        ~dst:(base + (2 * Addr.page_size)) ~pages:1);
  check_error "zero pages"
    (Kernel_error.EINVAL_bad_pages { pages = 0 })
    (fun () ->
      Swapva.swap proc ~opts:opts_pinned ~src:base
        ~dst:(base + (2 * Addr.page_size)) ~pages:0);
  check_error "identical" Kernel_error.EINVAL_identical (fun () ->
      Swapva.swap proc ~opts:opts_pinned ~src:base ~dst:base ~pages:1);
  check_error "unmapped"
    (Kernel_error.EFAULT_unmapped { va = base + (64 * Addr.page_size) })
    (fun () ->
      Swapva.swap proc ~opts:opts_pinned ~src:base
        ~dst:(base + (64 * Addr.page_size)) ~pages:4)

let test_swap_result_reifies_errors () =
  let _, proc = fresh () in
  let _ = mapped_window proc ~pages:4 in
  (match
     Swapva.swap_result proc ~opts:opts_pinned ~src:base ~dst:base ~pages:1
   with
  | Ok _ -> Alcotest.fail "identical ranges must be rejected"
  | Error (e, spent) ->
    Alcotest.(check bool) "typed EINVAL" true
      (Kernel_error.equal e Kernel_error.EINVAL_identical);
    Alcotest.(check bool) "spent ns positive" true (spent > 0.0));
  match
    Swapva.swap_result proc ~opts:opts_pinned ~src:base
      ~dst:(base + (2 * Addr.page_size)) ~pages:2
  with
  | Ok ns -> Alcotest.(check bool) "success cost" true (ns > 0.0)
  | Error (e, _) -> Alcotest.failf "unexpected %s" (Kernel_error.to_string e)

let test_swap_invalidates_tlbs () =
  let machine, proc = fresh () in
  let aspace = mapped_window proc ~pages:2 in
  (* Warm a remote core's TLB with the page, swap, then re-touch: the
     translation must have been refreshed (touch returns the new frame). *)
  Address_space.touch aspace ~core:3 ~va:base;
  let frame_before =
    match Address_space.translate aspace ~va:base with
    | Some (f, _) -> f
    | None -> Alcotest.fail "unmapped"
  in
  ignore
    (Swapva.swap proc
       ~opts:{ opts_pinned with Swapva.flush = Shootdown.Broadcast_per_call }
       ~src:base ~dst:(base + Addr.page_size) ~pages:1);
  let frame_after =
    match Address_space.translate aspace ~va:base with
    | Some (f, _) -> f
    | None -> Alcotest.fail "unmapped"
  in
  Alcotest.(check bool) "frame changed" true (frame_before <> frame_after);
  let st = Tlb.stats (Machine.core machine 3).Machine.tlb in
  let misses_before = st.Tlb.misses in
  Address_space.touch aspace ~core:3 ~va:base;
  Alcotest.(check int) "stale entry was flushed (miss on re-touch)"
    (misses_before + 1) (Tlb.stats (Machine.core machine 3).Machine.tlb).Tlb.misses

(* --- Aggregation / PMD caching costs --- *)

let build_requests proc ~n ~pages =
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:(2 * n * pages);
  List.init n (fun i ->
      let off = 2 * i * pages * Addr.page_size in
      { Swapva.src = base + off; dst = base + off + (pages * Addr.page_size); pages })

let test_aggregation_cheaper () =
  let _, proc = fresh () in
  let reqs = build_requests proc ~n:16 ~pages:4 in
  let separated = (Swapva.swap_separated proc ~opts:opts_pinned reqs).Swapva.ns in
  let aggregated = (Swapva.swap_aggregated proc ~opts:opts_pinned reqs).Swapva.ns in
  Alcotest.(check bool) "aggregated cheaper" true (aggregated < separated);
  (* The saving is (n-1) syscalls + (n-1) flushes. *)
  let cost = Cost_model.xeon_6130 in
  let expected =
    15.0 *. (cost.Cost_model.syscall_ns +. cost.Cost_model.tlb_flush_local_ns)
  in
  Alcotest.(check (float 1.0)) "saving structure" expected (separated -. aggregated)

let test_aggregated_empty_free () =
  let _, proc = fresh () in
  Alcotest.(check (float 1e-9)) "empty batch" 0.0
    (Swapva.swap_aggregated proc ~opts:opts_pinned []).Swapva.ns

let test_pmd_caching_cheaper () =
  let run ~pmd_caching =
    let _, proc = fresh () in
    let _ = mapped_window proc ~pages:128 in
    Swapva.swap proc
      ~opts:{ opts_pinned with Swapva.pmd_caching }
      ~src:base ~dst:(base + (64 * Addr.page_size)) ~pages:64
  in
  Alcotest.(check bool) "pmd caching saves walks" true
    (run ~pmd_caching:true < run ~pmd_caching:false)

let test_pmd_cache_hits_counted () =
  let machine, proc = fresh () in
  let _ = mapped_window proc ~pages:64 in
  ignore
    (Swapva.swap proc ~opts:opts_pinned ~src:base
       ~dst:(base + (32 * Addr.page_size)) ~pages:32);
  let perf = machine.Machine.perf in
  (* Both streams fall in one PMD region here: a single cold walk, then
     every getPTE is served by the cached leaf. *)
  Alcotest.(check int) "walks" 1 (Perf.get perf Pt_walks);
  Alcotest.(check int) "hits" 63 (Perf.get perf Pmd_cache_hits)

(* --- Swap_overlap (Algorithm 2) --- *)

let test_overlap_rotation_simple () =
  let _, proc = fresh () in
  let aspace = mapped_window proc ~pages:3 in
  (* pages=2, delta=1: window [A,B,C] -> [B,C,A]. *)
  ignore
    (overlap_exn
       (Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:true ~src:base
          ~dst:(base + Addr.page_size) ~pages:2));
  Alcotest.(check (list int)) "rotated"
    [ Char.code 'B'; Char.code 'C'; Char.code 'A' ]
    [ page_byte aspace 0; page_byte aspace 1; page_byte aspace 2 ]

let prop_overlap_matches_rotation =
  qtest ~count:80 "Algorithm 2 = left rotation by delta"
    QCheck.(pair (int_range 1 24) (int_range 1 24))
    (fun (pages, delta) ->
      QCheck.assume (delta <= pages);
      let _, proc = fresh () in
      let total = pages + delta in
      let aspace = mapped_window proc ~pages:total in
      let before = Array.init total (fun i -> page_byte aspace i) in
      ignore
        (overlap_exn
           (Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:false
              ~src:base ~dst:(base + (delta * Addr.page_size)) ~pages));
      let after = Array.init total (fun i -> page_byte aspace i) in
      after = Swap_overlap.rotation_reference before ~delta)

let test_overlap_pte_moves_linear () =
  (* O(n + delta) PTE moves, not O(2n): count them via perf. *)
  let machine, proc = fresh () in
  let _ = mapped_window proc ~pages:20 in
  let before = Perf.get machine.Machine.perf Ptes_swapped in
  ignore
    (overlap_exn
       (Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:false ~src:base
          ~dst:(base + (4 * Addr.page_size)) ~pages:16));
  Alcotest.(check int) "n + delta moves" 20
    (Perf.get machine.Machine.perf Ptes_swapped - before)

let test_overlap_validation () =
  let _, proc = fresh () in
  let _ = mapped_window proc ~pages:8 in
  let geometry name result =
    match result with
    | Error (Kernel_error.EINVAL_geometry _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" name (Kernel_error.to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  geometry "dst <= src"
    (Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:true
       ~src:(base + Addr.page_size) ~dst:base ~pages:2);
  geometry "no overlap"
    (Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:true ~src:base
       ~dst:(base + (6 * Addr.page_size)) ~pages:2);
  (match
     Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:true
       ~src:(base + 3) ~dst:(base + Addr.page_size + 3) ~pages:2
   with
  | Error (Kernel_error.EINVAL_unaligned { va }) ->
    Alcotest.(check int) "unaligned names the address" (base + 3) va
  | Error e -> Alcotest.failf "wrong error %s" (Kernel_error.to_string e)
  | Ok _ -> Alcotest.fail "unaligned accepted");
  match
    Swap_overlap.swap proc ~pmd_caching:true ~per_page_flush:false ~src:base
      ~dst:(base + (6 * Addr.page_size)) ~pages:8
  with
  | Error (Kernel_error.EFAULT_unmapped { va }) ->
    (* Window is 14 pages but only 8 are mapped: the first absent page is
       named, and nothing was rotated (checked by the callers' tests). *)
    Alcotest.(check int) "first absent page" (base + (8 * Addr.page_size)) va
  | Error e -> Alcotest.failf "wrong error %s" (Kernel_error.to_string e)
  | Ok _ -> Alcotest.fail "unmapped window accepted"

let test_swapva_dispatches_overlap () =
  let machine, proc = fresh () in
  let _ = mapped_window proc ~pages:12 in
  let before = Perf.get machine.Machine.perf Ptes_swapped in
  (* 8 pages sliding down by 2: Algorithm 2 does 10 moves; Algorithm 1
     would have done 16. *)
  ignore
    (Swapva.swap proc ~opts:opts_pinned ~src:(base + (2 * Addr.page_size))
       ~dst:base ~pages:8);
  Alcotest.(check int) "overlap path used" 10
    (Perf.get machine.Machine.perf Ptes_swapped - before)

let test_overlap_fault_plane () =
  (* 8 pages moving up by 3: Algorithm 2 rotates the 11-page window.  A
     [pte] clause aimed at one window page, inside [pages] or in the
     3-page tail, must fail the call on that page before anything moves. *)
  let pages = 8 and delta = 3 in
  let window = pages + delta in
  List.iter
    (fun target ->
      let machine, proc = fresh () in
      let aspace = mapped_window proc ~pages:window in
      let va = base + (target * Addr.page_size) in
      let spec =
        match
          Svagc_fault.Fault_spec.parse
            (Printf.sprintf "pte:every=1:va=0x%x-0x%x" va va)
        with
        | Ok spec -> spec
        | Error e -> Alcotest.fail e
      in
      machine.Machine.fault <- Some (Svagc_fault.Injector.create spec ~seed:0);
      let csum () =
        Address_space.checksum aspace ~va:base ~len:(window * Addr.page_size)
      in
      let c0 = csum () in
      let swapped0 = Perf.get machine.Machine.perf Ptes_swapped in
      let err =
        match
          Swapva.swap proc ~opts:opts_pinned ~src:base
            ~dst:(base + (delta * Addr.page_size)) ~pages
        with
        | _ -> None
        | exception Kernel_error.Fault_ns (e, _) -> Some e
      in
      let name = Printf.sprintf "window page %d" target in
      Alcotest.(check (option (testable Kernel_error.pp Kernel_error.equal)))
        (name ^ ": EFAULT names it")
        (Some (Kernel_error.EFAULT_unmapped { va }))
        err;
      Alcotest.(check int64) (name ^ ": window untouched") c0 (csum ());
      Alcotest.(check int) (name ^ ": no PTE moved") swapped0
        (Perf.get machine.Machine.perf Ptes_swapped))
    [ 2; pages + 1 ]

let prop_swap_sequence_preserves_content_multiset =
  qtest ~count:40 "random swap sequences permute pages, never lose bytes"
    QCheck.(pair small_int (list_of_size Gen.(1 -- 12) (pair (int_range 0 15) (int_range 0 15))))
    (fun (seed, moves) ->
      ignore seed;
      let _, proc = fresh () in
      let aspace = mapped_window proc ~pages:16 in
      let page_sig i = page_byte aspace i in
      let before = List.sort compare (List.init 16 page_sig) in
      List.iter
        (fun (a, b) ->
          if a <> b then
            let src = base + (min a b * Addr.page_size) in
            let dst = base + (max a b * Addr.page_size) in
            ignore (Swapva.swap proc ~opts:opts_pinned ~src ~dst ~pages:1))
        moves;
      let after = List.sort compare (List.init 16 page_sig) in
      before = after)

let prop_aggregated_equals_separated_state =
  qtest ~count:30 "aggregated and separated swaps produce identical memory"
    QCheck.(int_range 1 8)
    (fun n ->
      let run aggregated =
        let _, proc = fresh () in
        let aspace = mapped_window proc ~pages:(4 * n) in
        let reqs =
          List.init n (fun i ->
              let off = i * 4 * Addr.page_size in
              { Swapva.src = base + off;
                dst = base + off + (2 * Addr.page_size);
                pages = 2 })
        in
        if aggregated then ignore (Swapva.swap_aggregated proc ~opts:opts_pinned reqs)
        else ignore (Swapva.swap_separated proc ~opts:opts_pinned reqs);
        Address_space.checksum aspace ~va:base ~len:(4 * n * Addr.page_size)
      in
      run true = run false)

(* --- Flat engine vs per-page reference --- *)

(* The flat engine must be observationally identical to the
   page-at-a-time reference: same memory, same perf-counter deltas and
   bit-identical simulated cost (the bulk charge replays the reference
   loop's float additions in order).  Only [leaf_runs] differs — the flat
   engine counts the PMD leaves its two ranges span, the reference never
   does — so it is returned apart from the other counters. *)
let engine_outcome ~window_pages ~pmd_caching ~engine req =
  let machine, proc = fresh () in
  let aspace = mapped_window proc ~pages:window_pages in
  let before = Perf.copy machine.Machine.perf in
  let ns = engine proc ~pmd_caching req in
  let d = Perf.to_assoc (Perf.diff ~after:machine.Machine.perf ~before) in
  let csum =
    Address_space.checksum aspace ~va:base ~len:(window_pages * Addr.page_size)
  in
  (ns, List.remove_assoc "leaf_runs" d, List.assoc "leaf_runs" d, csum)

let flat_engine proc ~pmd_caching req =
  Swapva.swap_disjoint_flat proc ~pmd_caching ~leaf_swap:false req

(* PMD leaves spanned by both ranges of [req], from its addresses alone. *)
let leaves_spanned { Swapva.src; dst; pages } =
  let span va =
    Addr.pmd_number (va + ((pages - 1) * Addr.page_size)) - Addr.pmd_number va + 1
  in
  span src + span dst

let prop_flat_engine_equals_per_page =
  (* Offsets chosen so both ranges regularly straddle the 512-page PMD
     leaf boundaries at 512 and 1024. *)
  qtest ~count:30 "flat engine == per-page reference"
    QCheck.(
      quad (int_range 440 520) (int_range 960 1040) (int_range 1 150) bool)
    (fun (src_page, dst_page, pages, pmd_caching) ->
      QCheck.assume (src_page + pages <= dst_page);
      let window_pages = 1200 in
      QCheck.assume (dst_page + pages <= window_pages);
      let req =
        {
          Swapva.src = base + (src_page * Addr.page_size);
          dst = base + (dst_page * Addr.page_size);
          pages;
        }
      in
      let ref_ns, ref_perf, ref_leaf_runs, ref_csum =
        engine_outcome ~window_pages ~pmd_caching
          ~engine:Swapva.swap_disjoint_per_page req
      in
      let flat_ns, flat_perf, flat_leaf_runs, flat_csum =
        engine_outcome ~window_pages ~pmd_caching ~engine:flat_engine req
      in
      ref_ns = flat_ns && ref_perf = flat_perf && ref_csum = flat_csum
      && ref_leaf_runs = 0
      && flat_leaf_runs = leaves_spanned req)

let test_flat_engine_leaf_runs () =
  (* src crosses the leaf boundary at page 512, dst stays in one leaf. *)
  let req =
    {
      Swapva.src = base + (510 * Addr.page_size);
      dst = base + (600 * Addr.page_size);
      pages = 4;
    }
  in
  let _, _, leaf_runs, _ =
    engine_outcome ~window_pages:700 ~pmd_caching:true ~engine:flat_engine req
  in
  Alcotest.(check int) "two src leaves + one dst leaf" 3 leaf_runs

let test_flat_engine_unmapped_no_mutation () =
  let machine, proc = fresh () in
  let aspace = mapped_window proc ~pages:8 in
  (* Punch a hole in the middle of the dst range. *)
  Address_space.unmap_range aspace ~va:(base + (6 * Addr.page_size)) ~pages:1;
  let src_csum () =
    Address_space.checksum aspace ~va:base ~len:(4 * Addr.page_size)
  in
  let c0 = src_csum () in
  let swapped0 = Perf.get machine.Machine.perf Ptes_swapped in
  let err =
    try
      ignore
        (Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false
           { Swapva.src = base; dst = base + (4 * Addr.page_size); pages = 4 });
      None
    with Kernel_error.Fault e -> Some e
  in
  Alcotest.(check (option (testable Kernel_error.pp Kernel_error.equal)))
    "typed EFAULT naming the hole"
    (Some (Kernel_error.EFAULT_unmapped { va = base + (6 * Addr.page_size) }))
    err;
  Alcotest.(check int64) "no partial mutation" c0 (src_csum ());
  Alcotest.(check int) "no PTE exchanged" swapped0
    (Perf.get machine.Machine.perf Ptes_swapped)

(* --- leaf_swap (swap_disjoint_flat's whole-leaf mode) --- *)

let leaf = Addr.pages_per_pmd

let big_window proc ~pages =
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages;
  (* Filling whole pages is slow at this size: tag the first byte only. *)
  for i = 0 to pages - 1 do
    Address_space.write_u8 aspace ~va:(base + (i * Addr.page_size)) (i mod 251)
  done;
  aspace

let test_leaf_swap_whole_leaf () =
  let machine, proc = fresh ~ncores:4 () in
  let aspace = big_window proc ~pages:(3 * leaf) in
  let dst = base + (2 * leaf * Addr.page_size) in
  let ns =
    Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true
      { Swapva.src = base; dst; pages = leaf }
  in
  let perf = machine.Machine.perf in
  Alcotest.(check int) "one leaf swap" 1 (Perf.get perf Pmd_leaf_swaps);
  Alcotest.(check int) "no walks" 0 (Perf.get perf Pt_walks);
  Alcotest.(check int) "no cache hits" 0 (Perf.get perf Pmd_cache_hits);
  Alcotest.(check (float 1e-9)) "O(1) cost"
    machine.Machine.cost.Cost_model.pmd_swap_ns ns;
  Alcotest.(check int) "dst now holds old src" 0
    (Address_space.read_u8 aspace ~va:dst);
  Alcotest.(check int) "src now holds old dst"
    ((2 * leaf) mod 251)
    (Address_space.read_u8 aspace ~va:base)

let test_leaf_swap_falls_back_when_unaligned () =
  let machine, proc = fresh () in
  let _ = big_window proc ~pages:(3 * leaf) in
  (* Same size, but src one page off a PMD boundary: must take the normal
     flat path with per-page costs. *)
  let ns_unaligned =
    Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true
      {
        Swapva.src = base + Addr.page_size;
        dst = base + ((2 * leaf + 1) * Addr.page_size);
        pages = leaf - 1;
      }
  in
  Alcotest.(check int) "no leaf swaps" 0
    (Perf.get machine.Machine.perf Pmd_leaf_swaps);
  Alcotest.(check bool) "charged per page" true
    (ns_unaligned > machine.Machine.cost.Cost_model.pmd_swap_ns *. 10.0)

let test_leaf_swap_partial_tail () =
  (* 600 PMD-aligned pages: one whole leaf O(1)-swapped, the 88-page tail
     per-page.  Double-swapping restores the window. *)
  let machine, proc = fresh () in
  let aspace = big_window proc ~pages:(4 * leaf) in
  let csum () =
    Address_space.checksum aspace ~va:base ~len:(4 * leaf * Addr.page_size)
  in
  let c0 = csum () in
  let req =
    { Swapva.src = base; dst = base + (2 * leaf * Addr.page_size); pages = 600 }
  in
  ignore (Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true req);
  let perf = machine.Machine.perf in
  Alcotest.(check int) "one leaf swap" 1 (Perf.get perf Pmd_leaf_swaps);
  Alcotest.(check int) "2 + 2*88 PTE exchanges" (2 + (2 * 88))
    (Perf.get perf Ptes_swapped);
  Alcotest.(check bool) "window changed" true (c0 <> csum ());
  ignore (Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true req);
  Alcotest.(check int64) "double swap restores" c0 (csum ())

(* --- Shootdown --- *)

let test_shootdown_cost_ordering () =
  let machine, _ = fresh ~ncores:16 () in
  let c_broadcast =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Broadcast_per_call
  in
  let c_targeted =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Process_targeted
  in
  let c_local =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Local_pinned
  in
  Alcotest.(check bool) "broadcast > targeted > local" true
    (c_broadcast > c_targeted && c_targeted > c_local)

let test_self_invalidate_no_ipis () =
  let machine, _ = fresh ~ncores:16 () in
  let before = Perf.get machine.Machine.perf Ipis_sent in
  let c_self =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Self_invalidate
  in
  Alcotest.(check int) "no IPIs sent" before (Perf.get machine.Machine.perf Ipis_sent);
  let c_local =
    Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Local_pinned
  in
  Alcotest.(check bool) "epoch bump costs a little over a local flush" true
    (c_self > c_local && c_self < c_local +. 200.0);
  (* State is still correct: remote entries are invalidated. *)
  Tlb.insert (Machine.core machine 9).Machine.tlb ~asid:1 ~vpn:5 ~frame:5;
  ignore (Shootdown.flush_after_swap machine ~asid:1 ~core:0 Shootdown.Self_invalidate);
  Alcotest.(check int) "remote entry gone" (-1)
    (Tlb.lookup (Machine.core machine 9).Machine.tlb ~asid:1 ~vpn:5)

let test_shootdown_prologue () =
  let machine, _ = fresh ~ncores:8 () in
  Alcotest.(check (float 1e-9)) "no prologue for broadcast" 0.0
    (Shootdown.cycle_prologue machine ~asid:1 ~core:0 Shootdown.Broadcast_per_call);
  Alcotest.(check bool) "pinned prologue pays the broadcast" true
    (Shootdown.cycle_prologue machine ~asid:1 ~core:0 Shootdown.Local_pinned > 0.0)

(* --- Process --- *)

let test_process_pinning () =
  let _, proc = fresh () in
  Alcotest.(check bool) "not pinned" false (Process.is_pinned proc);
  let cost = Process.pin proc ~core:2 in
  Alcotest.(check bool) "pin cost" true (cost > 0.0);
  Alcotest.(check int) "on core 2" 2 (Process.current_core proc);
  Alcotest.(check bool) "migration rejected while pinned" true
    (try Process.set_current_core proc 1; false with Invalid_argument _ -> true);
  ignore (Process.unpin proc);
  Process.set_current_core proc 1;
  Alcotest.(check int) "migrated" 1 (Process.current_core proc)

let () =
  Alcotest.run "svagc_kernel"
    [
      ( "memmove",
        [
          Alcotest.test_case "disjoint copy" `Quick test_memmove_disjoint;
          Alcotest.test_case "overlap semantics" `Quick test_memmove_overlap_semantics;
          Alcotest.test_case "cost scales" `Quick test_memmove_cost_scales;
          Alcotest.test_case "cold tier" `Quick test_memmove_cold_slower;
          prop_memmove_matches_bytes_blit;
        ] );
      ( "swapva",
        [
          Alcotest.test_case "exchanges contents" `Quick test_swap_exchanges_contents;
          Alcotest.test_case "involution" `Quick test_swap_is_involution;
          Alcotest.test_case "zero copy" `Quick test_swap_zero_copy;
          Alcotest.test_case "validation" `Quick test_swap_validation;
          Alcotest.test_case "swap_result reifies errors" `Quick
            test_swap_result_reifies_errors;
          Alcotest.test_case "TLB invalidation" `Quick test_swap_invalidates_tlbs;
        ] );
      ( "aggregation+pmd",
        [
          Alcotest.test_case "aggregation cheaper" `Quick test_aggregation_cheaper;
          Alcotest.test_case "empty batch free" `Quick test_aggregated_empty_free;
          Alcotest.test_case "pmd caching cheaper" `Quick test_pmd_caching_cheaper;
          Alcotest.test_case "pmd hits counted" `Quick test_pmd_cache_hits_counted;
        ] );
      ( "swap_overlap",
        [
          Alcotest.test_case "simple rotation" `Quick test_overlap_rotation_simple;
          Alcotest.test_case "O(n+delta) moves" `Quick test_overlap_pte_moves_linear;
          Alcotest.test_case "validation" `Quick test_overlap_validation;
          Alcotest.test_case "dispatch from swapva" `Quick test_swapva_dispatches_overlap;
          prop_overlap_matches_rotation;
          prop_swap_sequence_preserves_content_multiset;
          prop_aggregated_equals_separated_state;
          Alcotest.test_case "fault plane: EFAULT before any move" `Quick
            test_overlap_fault_plane;
        ] );
      ( "flat_engine",
        [
          prop_flat_engine_equals_per_page;
          Alcotest.test_case "unmapped: exact error, no mutation" `Quick
            test_flat_engine_unmapped_no_mutation;
          Alcotest.test_case "leaf runs: src crosses a leaf, dst does not"
            `Quick test_flat_engine_leaf_runs;
        ] );
      ( "leaf_swap",
        [
          Alcotest.test_case "whole leaf O(1)" `Quick test_leaf_swap_whole_leaf;
          Alcotest.test_case "unaligned falls back" `Quick
            test_leaf_swap_falls_back_when_unaligned;
          Alcotest.test_case "partial tail + involution" `Quick
            test_leaf_swap_partial_tail;
        ] );
      ( "shootdown",
        [
          Alcotest.test_case "cost ordering" `Quick test_shootdown_cost_ordering;
          Alcotest.test_case "self-invalidate" `Quick test_self_invalidate_no_ipis;
          Alcotest.test_case "prologue" `Quick test_shootdown_prologue;
        ] );
      ("process", [ Alcotest.test_case "pinning" `Quick test_process_pinning ]);
    ]
