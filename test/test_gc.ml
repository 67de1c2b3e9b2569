(* Tests for the GC engine: the four LISP2 phases, the full cycle, and the
   baseline collectors. *)

open Svagc_vmem
open Svagc_heap
module Mark = Svagc_gc.Mark
module Forward = Svagc_gc.Forward
module Adjust = Svagc_gc.Adjust
module Compact = Svagc_gc.Compact
module Lisp2 = Svagc_gc.Lisp2
module Gc_stats = Svagc_gc.Gc_stats
module Gc_intf = Svagc_gc.Gc_intf
module Generational = Svagc_gc.Generational
module Vec = Svagc_util.Vec

let qtest ?(count = 30) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Mark --- *)

let marked_count heap =
  Svagc_util.Vec.fold_left
    (fun n o -> if o.Obj_model.marked then n + 1 else n)
    0 (Heap.objects heap)

let test_mark_reachability () =
  let heap = Helpers.heap () in
  let p = Helpers.populate heap in
  let t = Mark.run heap ~threads:4 in
  Alcotest.(check bool) "positive time" true (t > 0.0);
  List.iter
    (fun o -> Alcotest.(check bool) "rooted marked" true o.Obj_model.marked)
    p.Helpers.rooted;
  List.iter
    (fun o -> Alcotest.(check bool) "garbage unmarked" false o.Obj_model.marked)
    p.Helpers.dropped

let test_mark_follows_refs () =
  let heap = Helpers.heap () in
  let a = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  let b = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  let c = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  Heap.set_ref heap a ~slot:0 (Some b);
  Heap.set_ref heap b ~slot:0 (Some c);
  Heap.add_root heap a;
  ignore (Mark.run heap ~threads:1);
  Alcotest.(check bool) "transitively reachable" true
    (a.Obj_model.marked && b.Obj_model.marked && c.Obj_model.marked)

let test_mark_handles_cycles () =
  let heap = Helpers.heap () in
  let a = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  let b = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  Heap.set_ref heap a ~slot:0 (Some b);
  Heap.set_ref heap b ~slot:0 (Some a);
  Heap.add_root heap a;
  ignore (Mark.run heap ~threads:1);
  Alcotest.(check bool) "cycle marked once, no hang" true
    (a.Obj_model.marked && b.Obj_model.marked);
  Alcotest.(check int) "live set" 2 (marked_count heap)

let test_mark_empty_roots () =
  let heap = Helpers.heap () in
  ignore (Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0);
  ignore (Mark.run heap ~threads:2);
  Alcotest.(check int) "nothing live" 0 (marked_count heap)

(* --- Forward --- *)

let forward_fixture () =
  let heap = Helpers.heap () in
  let p = Helpers.populate heap in
  ignore (Mark.run heap ~threads:2);
  (heap, p, Forward.run heap ~threads:2)

(* [ok a b] holds for every consecutive pair of the array. *)
let pairwise ok arr =
  let rec go i = i >= Array.length arr || (ok arr.(i - 1) arr.(i) && go (i + 1)) in
  go 1

let test_forward_slides_down () =
  let heap, _, fwd = forward_fixture () in
  Alcotest.(check bool) "forwarding addresses ascend" true
    (pairwise (fun a b -> a.Obj_model.forward < b.Obj_model.forward) fwd.Forward.live);
  Array.iter
    (fun o ->
      Alcotest.(check bool) "never moves up" true
        (o.Obj_model.forward <= o.Obj_model.addr))
    fwd.Forward.live;
  Alcotest.(check bool) "new top below old top" true
    (fwd.Forward.new_top <= Heap.top heap)

let test_forward_aligns_large () =
  let _, _, fwd = forward_fixture () in
  Array.iter
    (fun o ->
      if o.Obj_model.size >= 10 * Addr.page_size then
        Alcotest.(check bool) "large destination aligned" true
          (Addr.is_page_aligned o.Obj_model.forward))
    fwd.Forward.live

let test_forward_no_dest_overlap () =
  let _, _, fwd = forward_fixture () in
  Alcotest.(check bool) "destinations disjoint" true
    (pairwise
       (fun a b -> a.Obj_model.forward + a.Obj_model.size <= b.Obj_model.forward)
       fwd.Forward.live)

let test_forward_waste_bounded () =
  let _, _, fwd = forward_fixture () in
  let live_bytes =
    Array.fold_left (fun acc o -> acc + o.Obj_model.size) 0 fwd.Forward.live
  in
  Alcotest.(check bool) "alignment waste below 5% of live set" true
    (float_of_int fwd.Forward.waste_bytes < 0.05 *. float_of_int live_bytes)

(* Interleaved TLABs leave the object vector out of address order: Forward
   must still hand back the live set ascending, with the layout it computes
   on a sorted heap. *)
let test_forward_unsorted_heap () =
  let layout ~shuffle =
    let heap = Helpers.heap () in
    ignore (Helpers.populate heap);
    ignore (Mark.run heap ~threads:2);
    let objs = Heap.objects heap in
    if shuffle then begin
      let rng = Svagc_util.Rng.create ~seed:7 in
      for i = Svagc_util.Vec.length objs - 1 downto 1 do
        let j = Svagc_util.Rng.int rng (i + 1) in
        let a = Svagc_util.Vec.get objs i in
        Svagc_util.Vec.set objs i (Svagc_util.Vec.get objs j);
        Svagc_util.Vec.set objs j a
      done
    end;
    let fwd = Forward.run heap ~threads:2 in
    ( Array.map (fun o -> (o.Obj_model.id, o.Obj_model.addr, o.Obj_model.forward))
        fwd.Forward.live,
      fwd )
  in
  let sorted, fwd_sorted = layout ~shuffle:false in
  let shuffled, fwd_shuffled = layout ~shuffle:true in
  Alcotest.(check bool) "live ascending" true
    (pairwise (fun (_, a, _) (_, b, _) -> a < b) shuffled);
  Alcotest.(check (array (triple int int int))) "same live set and forwarding" sorted
    shuffled;
  Alcotest.(check int) "same new top" fwd_sorted.Forward.new_top
    fwd_shuffled.Forward.new_top;
  Alcotest.(check int) "same waste" fwd_sorted.Forward.waste_bytes
    fwd_shuffled.Forward.waste_bytes

(* The order the gather gave before its radix sort: the marked objects
   in vector order, an index permutation stable-sorted by address. *)
let stable_sort_order objs =
  let live = List.filter (fun o -> o.Obj_model.marked) objs |> Array.of_list in
  let addrs = Array.map (fun o -> o.Obj_model.addr) live in
  let perm = Array.init (Array.length live) Fun.id in
  Array.stable_sort (fun i j -> Int.compare addrs.(i) addrs.(j)) perm;
  Array.map (fun i -> live.(i)) perm

type vector_order = Shuffled | Ascending | Descending

type marking = All | Nothing | One | Some_of

(* Unique addresses below [2^bits] (one radix pass at 4 bits, four at
   40), laid out in the vector in one of three orders, and a marking that
   leaves any number of live objects, 0 and 1 included. *)
let gather_arb =
  let gen =
    QCheck.Gen.(
      oneofl [ 4; 12; 25; 40 ] >>= fun bits ->
      list_size (int_bound 300) (int_bound ((1 lsl bits) - 1)) >>= fun addrs ->
      let addrs = List.sort_uniq compare addrs in
      oneofl [ Shuffled; Ascending; Descending ] >>= fun order ->
      shuffle_l addrs >>= fun shuffled ->
      oneofl [ All; Nothing; One; Some_of ] >>= fun marking ->
      list_repeat (List.length addrs) bool >>= fun coins ->
      let addrs =
        match order with
        | Shuffled -> shuffled
        | Ascending -> addrs
        | Descending -> List.rev addrs
      in
      let marks =
        List.mapi
          (fun i coin ->
            match marking with
            | All -> true
            | Nothing -> false
            | One -> i = List.length addrs / 2
            | Some_of -> coin)
          coins
      in
      return (List.combine addrs marks))
  in
  let print l =
    String.concat " "
      (List.map (fun (a, m) -> Printf.sprintf "%d%s" a (if m then "*" else "")) l)
  in
  QCheck.make ~print gen

let gather_heap = lazy (Helpers.heap ())

let prop_gather_matches_stable_sort =
  qtest ~count:300 "live order matches the stable-sort gather" gather_arb
    (fun layout ->
      let heap = Lazy.force gather_heap in
      let objs =
        List.mapi
          (fun id (addr, marked) ->
            let o =
              Obj_model.make ~id:(id + 1) ~addr ~size:Obj_model.header_bytes ~cls:0
                ~n_refs:0
            in
            o.Obj_model.marked <- marked;
            o)
          layout
      in
      let vec = Heap.objects heap in
      Vec.clear vec;
      List.iter (Vec.push vec) objs;
      let expect = stable_sort_order objs in
      let live = Forward.live_in_address_order heap in
      Array.length live = Array.length expect
      && Array.for_all2 ( == ) live expect
      && List.for_all
           (fun o -> Obj_model.dropped o = not o.Obj_model.marked)
           objs)

(* --- Adjust --- *)

(* Adjust rewrites no slot: a reference holds its target, and the commit
   moves the target's [addr] to the forwarding address. *)
let test_refs_follow_moves () =
  let heap = Helpers.heap () in
  let a = Heap.alloc heap ~size:4096 ~n_refs:1 ~cls:0 in
  ignore (Heap.alloc heap ~size:8192 ~n_refs:0 ~cls:0);
  (* dead filler *)
  let b = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  Heap.set_ref heap a ~slot:0 (Some b);
  Heap.add_root heap a;
  let tagged = Helpers.checksums heap [ b ] in
  ignore (Mark.run heap ~threads:1);
  let fwd = Forward.run heap ~threads:1 in
  let dest = b.Obj_model.forward in
  Alcotest.(check bool) "b slides down" true (dest < b.Obj_model.addr);
  ignore (Adjust.run heap ~threads:1 ~live:fwd.Forward.live);
  Alcotest.(check bool) "the slot still holds b" true (a.Obj_model.refs.(0) == b);
  ignore
    (Compact.run heap ~threads:1 ~mover:Compact.memmove_mover ~live:fwd.Forward.live
       ~new_top:fwd.Forward.new_top);
  (match Heap.deref heap a ~slot:0 with
  | Some t ->
    Alcotest.(check bool) "deref finds b" true (t == b);
    Alcotest.(check int) "at b's forwarding address" dest t.Obj_model.addr
  | None -> Alcotest.fail "link lost");
  Helpers.assert_checksums heap tagged

let test_adjust_first_offender () =
  (* Two live objects far apart in address order each get a reference to
     a dropped object; the lower-addressed one references the later
     allocated target, so neither target order nor slice order can pass
     for address order. *)
  let heap, p, fwd = forward_fixture () in
  let live = fwd.Forward.live in
  let with_refs =
    List.filter
      (fun o -> Array.length o.Obj_model.refs > 0)
      (Array.to_list live)
  in
  let first = List.hd with_refs
  and last = List.nth with_refs (List.length with_refs - 1) in
  Alcotest.(check bool) "planted objects in address order" true
    (first.Obj_model.addr < last.Obj_model.addr);
  let early = List.hd p.Helpers.dropped
  and late = List.nth p.Helpers.dropped (List.length p.Helpers.dropped - 1) in
  first.Obj_model.refs.(0) <- late;
  last.Obj_model.refs.(0) <- early;
  Alcotest.check_raises "names the lower-addressed object's dead target"
    (Invalid_argument
       (Printf.sprintf "Adjust.run: object %d references dead object %d"
          first.Obj_model.id late.Obj_model.id))
    (fun () -> ignore (Adjust.run heap ~threads:4 ~live))

(* A reference to an object an earlier collection dropped is a GC bug
   wherever it is followed.  Each dropped object lies below its heap's
   top again by then, so only its drop flag can tell. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let raises what ~mentioning f =
  match f () with
  | _ -> Alcotest.failf "%s: a reference to a dropped object went through" what
  | exception Invalid_argument msg ->
    if not (contains msg mentioning) then Alcotest.failf "%s raised: %s" what msg

let test_dropped_reference_raises () =
  let heap = Helpers.heap () in
  let a = Heap.alloc heap ~size:64 ~n_refs:1 ~cls:0 in
  let gone = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  Heap.add_root heap a;
  ignore (Lisp2.collect (Lisp2.config ()) heap);
  Alcotest.(check bool) "the collection dropped it" true (Obj_model.dropped gone);
  ignore (Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0);
  Alcotest.(check bool) "below the top again" true
    (gone.Obj_model.addr < Heap.top heap);
  Heap.set_ref heap a ~slot:0 (Some gone);
  raises "Heap.deref" ~mentioning:"dropped" (fun () -> Heap.deref heap a ~slot:0);
  raises "Mark.run" ~mentioning:"dropped" (fun () -> Mark.run heap ~threads:1);
  (* Planted after marking, the reference reaches adjust. *)
  Heap.set_ref heap a ~slot:0 None;
  ignore (Mark.run heap ~threads:1);
  let fwd = Forward.run heap ~threads:1 in
  Heap.set_ref heap a ~slot:0 (Some gone);
  raises "Adjust.run"
    ~mentioning:(Printf.sprintf "references dead object %d" gone.Obj_model.id)
    (fun () -> Adjust.run heap ~threads:1 ~live:fwd.Forward.live);
  let gen =
    Generational.create
      (Svagc_kernel.Process.create (Helpers.machine ()))
      ~young_bytes:(8 * 1024 * 1024) ~old_bytes:(32 * 1024 * 1024) ()
  in
  let elder = Generational.alloc gen ~size:64 ~n_refs:1 ~cls:0 in
  Generational.add_root gen elder;
  let gone = Generational.alloc gen ~size:64 ~n_refs:0 ~cls:0 in
  ignore (Generational.minor gen ~mover:Compact.memmove_mover);
  Alcotest.(check bool) "the minor dropped it" true (Obj_model.dropped gone);
  ignore (Generational.alloc gen ~size:4096 ~n_refs:0 ~cls:0);
  Generational.set_ref gen elder ~slot:0 (Some gone);
  raises "Generational.deref" ~mentioning:"dropped" (fun () ->
      Generational.deref gen elder ~slot:0);
  raises "Generational.minor" ~mentioning:"dropped" (fun () ->
      Generational.minor gen ~mover:Compact.memmove_mover)

(* --- Compact (memmove) --- *)

let run_lisp2 ?(threads = 4) heap =
  Lisp2.collect (Lisp2.config ~threads ()) heap

let test_compact_preserves_contents () =
  let heap = Helpers.heap () in
  let p = Helpers.populate heap in
  let tagged = Helpers.checksums heap p.Helpers.rooted in
  let cycle = run_lisp2 heap in
  Helpers.assert_checksums heap tagged;
  Helpers.assert_live_set heap p.Helpers.rooted;
  Alcotest.(check int) "only the rooted chain survives"
    (List.length p.Helpers.rooted) cycle.Gc_stats.live_objects

let test_compact_reclaims () =
  let heap = Helpers.heap () in
  let p = Helpers.populate heap in
  let used_before = Heap.used_bytes heap in
  let cycle = run_lisp2 heap in
  Alcotest.(check bool) "top dropped" true (Heap.used_bytes heap < used_before);
  Alcotest.(check int) "reclaimed accounted"
    (used_before - Heap.used_bytes heap)
    cycle.Gc_stats.reclaimed_bytes;
  ignore p

let test_second_gc_moves_nothing () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  ignore (run_lisp2 heap);
  let c2 = run_lisp2 heap in
  Alcotest.(check int) "idempotent layout" 0 c2.Gc_stats.moved_objects

let test_compact_updates_index_and_marks () =
  let heap = Helpers.heap () in
  let p = Helpers.populate heap in
  ignore (run_lisp2 heap);
  List.iter
    (fun o ->
      Alcotest.(check bool) "marks cleared" false o.Obj_model.marked)
    p.Helpers.rooted;
  (* Dereferencing after the move must still work. *)
  List.iter
    (fun o ->
      if o.Obj_model.refs.(0) != Obj_model.null then
        match Heap.deref heap o ~slot:0 with
        | Some _ -> ()
        | None -> Alcotest.fail "link lost")
    p.Helpers.rooted

let test_allocation_after_gc () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  ignore (run_lisp2 heap);
  let o = Heap.alloc heap ~size:(50 * 1024) ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "fresh large object aligned" true
    (Addr.is_page_aligned o.Obj_model.addr);
  Alcotest.(check bool) "allocated above survivors" true
    (o.Obj_model.addr >= Heap.base heap)

let prop_gc_preserves_all_live_checksums =
  qtest ~count:15 "full GC preserves every live object's bytes (random seeds)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let heap = Helpers.heap () in
      let p = Helpers.populate ~seed heap in
      let tagged = Helpers.checksums heap p.Helpers.rooted in
      ignore (run_lisp2 heap);
      List.for_all
        (fun (o, c) ->
          Heap.checksum_object heap o = c && Heap.header_matches heap o)
        tagged)

(* --- Phase accounting --- *)

let test_cycle_stats_consistent () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  let c = run_lisp2 heap in
  Alcotest.(check bool) "all phases positive" true
    (c.Gc_stats.mark_ns > 0.0 && c.Gc_stats.forward_ns > 0.0
    && c.Gc_stats.adjust_ns > 0.0 && c.Gc_stats.compact_ns > 0.0);
  Alcotest.(check (float 1e-6)) "pause = sum of phases"
    (c.Gc_stats.mark_ns +. c.Gc_stats.forward_ns +. c.Gc_stats.adjust_ns
    +. c.Gc_stats.compact_ns)
    (Gc_stats.pause_ns c);
  Alcotest.(check bool) "bytes copied recorded" true (c.Gc_stats.bytes_copied > 0)

let test_more_threads_faster () =
  let pause threads =
    let heap = Helpers.heap () in
    ignore (Helpers.populate ~n:300 heap);
    Gc_stats.pause_ns (run_lisp2 ~threads heap)
  in
  Alcotest.(check bool) "4 threads beat 1" true (pause 4 < pause 1)

let test_summarize () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  let c1 = run_lisp2 heap in
  let c2 = run_lisp2 heap in
  let s = Gc_stats.summarize [ c1; c2 ] in
  Alcotest.(check int) "cycles" 2 s.Gc_stats.cycles;
  Alcotest.(check (float 1e-6)) "total"
    (Gc_stats.pause_ns c1 +. Gc_stats.pause_ns c2)
    s.Gc_stats.total_pause_ns;
  Alcotest.(check (float 1e-6)) "max"
    (Float.max (Gc_stats.pause_ns c1) (Gc_stats.pause_ns c2))
    s.Gc_stats.max_pause_ns

let test_summarize_zero_cycles () =
  let s = Gc_stats.summarize [] in
  Alcotest.(check int) "cycles" 0 s.Gc_stats.cycles;
  Alcotest.(check (float 0.0)) "total" 0.0 s.Gc_stats.total_pause_ns;
  Alcotest.(check (float 0.0)) "max" 0.0 s.Gc_stats.max_pause_ns;
  (* avg over zero cycles must be a well-defined 0, not a NaN *)
  Alcotest.(check (float 0.0)) "avg" 0.0 s.Gc_stats.avg_pause_ns;
  Alcotest.(check int) "copied" 0 s.Gc_stats.total_bytes_copied;
  Alcotest.(check int) "remapped" 0 s.Gc_stats.total_bytes_remapped

let test_summarize_single_cycle () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  let c = run_lisp2 heap in
  let s = Gc_stats.summarize [ c ] in
  Alcotest.(check int) "cycles" 1 s.Gc_stats.cycles;
  let pause = Gc_stats.pause_ns c in
  Alcotest.(check (float 1e-6)) "total = the pause" pause s.Gc_stats.total_pause_ns;
  Alcotest.(check (float 1e-6)) "max = the pause" pause s.Gc_stats.max_pause_ns;
  Alcotest.(check (float 1e-6)) "avg = the pause" pause s.Gc_stats.avg_pause_ns;
  Alcotest.(check (float 1e-6)) "compact split"
    c.Gc_stats.compact_ns s.Gc_stats.total_compact_ns;
  Alcotest.(check (float 1e-6)) "other split"
    (Gc_stats.non_compact_ns c) s.Gc_stats.total_other_ns;
  Alcotest.(check int) "copied" c.Gc_stats.bytes_copied s.Gc_stats.total_bytes_copied;
  Alcotest.(check int) "remapped"
    c.Gc_stats.bytes_remapped s.Gc_stats.total_bytes_remapped

(* --- Baselines --- *)

let test_shenandoah_full_cycle_stops_the_world () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  let c = Gc_intf.collect (Svagc_gc.Shenandoah.collector ~threads:4 heap) in
  Alcotest.(check (float 0.0)) "nothing off-pause" 0.0 c.Gc_stats.concurrent_ns;
  Alcotest.(check bool) "marking is pause" true (c.Gc_stats.mark_ns > 0.0)

let test_shenandoah_copy_single_threaded () =
  (* Same heap population: Shenandoah's compact phase must be slower than
     ParallelGC's because it runs at one thread. *)
  let compact_of collector_of =
    let heap = Helpers.heap () in
    ignore (Helpers.populate ~n:200 heap);
    (Gc_intf.collect (collector_of heap)).Gc_stats.compact_ns
  in
  let shen = compact_of (Svagc_gc.Shenandoah.collector ~threads:4) in
  let par = compact_of (Svagc_gc.Parallel_gc.collector ~threads:4) in
  Alcotest.(check bool) "shenandoah copy slower" true (shen > par *. 1.5)

let test_collector_history () =
  let heap = Helpers.heap () in
  ignore (Helpers.populate heap);
  let collector = Svagc_gc.Parallel_gc.collector heap in
  ignore (Gc_intf.collect collector);
  ignore (Gc_intf.collect collector);
  Alcotest.(check int) "history" 2 (List.length (Gc_intf.cycles collector));
  Gc_intf.reset_history collector;
  Alcotest.(check int) "reset" 0 (List.length (Gc_intf.cycles collector))

let test_lisp2_config_validation () =
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad threads rejected" true
    (rejected (fun () -> Lisp2.config ~threads:0 ()));
  List.iter
    (fun compact_threads ->
      Alcotest.(check bool)
        (Printf.sprintf "compact_threads %d rejected" compact_threads)
        true
        (rejected (fun () -> Lisp2.config ~compact_threads ())))
    [ 0; -1 ]

let () =
  Alcotest.run "svagc_gc"
    [
      ( "mark",
        [
          Alcotest.test_case "reachability" `Quick test_mark_reachability;
          Alcotest.test_case "follows refs" `Quick test_mark_follows_refs;
          Alcotest.test_case "cycles" `Quick test_mark_handles_cycles;
          Alcotest.test_case "empty roots" `Quick test_mark_empty_roots;
        ] );
      ( "forward",
        [
          Alcotest.test_case "slides down" `Quick test_forward_slides_down;
          Alcotest.test_case "aligns large" `Quick test_forward_aligns_large;
          Alcotest.test_case "destinations disjoint" `Quick test_forward_no_dest_overlap;
          Alcotest.test_case "waste bounded" `Quick test_forward_waste_bounded;
          prop_gather_matches_stable_sort;
          Alcotest.test_case "unsorted heap" `Quick test_forward_unsorted_heap;
        ] );
      ( "adjust",
        [
          Alcotest.test_case "refs follow moves" `Quick test_refs_follow_moves;
          Alcotest.test_case "dropped reference raises" `Quick
            test_dropped_reference_raises;
          Alcotest.test_case "first offender in address order" `Quick
            test_adjust_first_offender;
        ] );
      ( "compact",
        [
          Alcotest.test_case "preserves contents" `Quick test_compact_preserves_contents;
          Alcotest.test_case "reclaims" `Quick test_compact_reclaims;
          Alcotest.test_case "idempotent" `Quick test_second_gc_moves_nothing;
          Alcotest.test_case "index and marks" `Quick test_compact_updates_index_and_marks;
          Alcotest.test_case "allocation after GC" `Quick test_allocation_after_gc;
          prop_gc_preserves_all_live_checksums;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "cycle stats" `Quick test_cycle_stats_consistent;
          Alcotest.test_case "threads speed up phases" `Quick test_more_threads_faster;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "summarize zero cycles" `Quick
            test_summarize_zero_cycles;
          Alcotest.test_case "summarize single cycle" `Quick
            test_summarize_single_cycle;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "shenandoah full cycle stops the world" `Quick
            test_shenandoah_full_cycle_stops_the_world;
          Alcotest.test_case "shenandoah 1-thread copy" `Quick
            test_shenandoah_copy_single_threaded;
          Alcotest.test_case "history" `Quick test_collector_history;
          Alcotest.test_case "config validation" `Quick test_lisp2_config_validation;
        ] );
    ]
