(* Tests for the heap substrate: Algorithm 3 allocation alignment, TLABs,
   roots, references, payload IO. *)

open Svagc_vmem
open Svagc_heap
module Process = Svagc_kernel.Process
module Addr_index = Svagc_util.Addr_index

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let kib = 1024
let threshold_bytes = 10 * Addr.page_size

let fresh_heap ?(size_mib = 16) ?(threshold_pages = 10) () =
  let machine = Machine.create ~phys_mib:64 Cost_model.xeon_6130 in
  let proc = Process.create machine in
  Heap.create proc ~threshold_pages ~size_bytes:(size_mib * 1024 * 1024) ()

(* --- Obj_model --- *)

let test_obj_model () =
  let o = Obj_model.make ~id:1 ~addr:4096 ~size:(48 * kib) ~cls:0 ~n_refs:2 in
  Alcotest.(check int) "pages" 12 (Obj_model.pages o);
  Alcotest.(check int) "end addr" (4096 + (48 * kib)) (Obj_model.end_addr o)

let test_obj_model_validation () =
  Alcotest.(check bool) "size below header rejected" true
    (try ignore (Obj_model.make ~id:1 ~addr:0 ~size:8 ~cls:0 ~n_refs:0); false
     with Invalid_argument _ -> true)

(* --- Algorithm 3 alignment --- *)

let test_small_objects_pack () =
  let heap = fresh_heap () in
  let a = Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0 in
  let b = Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0 in
  Alcotest.(check int) "contiguous" (Obj_model.end_addr a) b.Obj_model.addr

let test_large_object_page_aligned () =
  let heap = fresh_heap () in
  ignore (Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0);
  let big = Heap.alloc heap ~size:threshold_bytes ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "start aligned" true (Addr.is_page_aligned big.Obj_model.addr);
  (* The next allocation must start on a fresh page (tail realignment). *)
  let next = Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "large object owns its pages exclusively" true
    (Addr.is_page_aligned next.Obj_model.addr
    && next.Obj_model.addr >= Addr.align_up (Obj_model.end_addr big))

let test_below_threshold_not_aligned () =
  let heap = fresh_heap () in
  ignore (Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0);
  let mid = Heap.alloc heap ~size:(threshold_bytes - Addr.page_size) ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "below-threshold objects pack" false
    (Addr.is_page_aligned mid.Obj_model.addr)

let test_alignment_waste_accounted () =
  let heap = fresh_heap () in
  ignore (Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0);
  ignore (Heap.alloc heap ~size:threshold_bytes ~n_refs:0 ~cls:0);
  Alcotest.(check bool) "waste recorded" true (Heap.wasted_bytes heap > 0);
  Alcotest.(check bool) "waste < 2 pages for one aligned alloc" true
    (Heap.wasted_bytes heap < 2 * Addr.page_size)

let test_fragmentation_below_5_percent () =
  (* The paper's claim: with a 10-page threshold, alignment waste stays
     under ~5% of the heap even for adversarial size mixes. *)
  let heap = fresh_heap ~size_mib:32 () in
  let rng = Svagc_util.Rng.create ~seed:3 in
  (try
     while true do
       (* Worst case: every object barely above the threshold with a
          maximally misaligned tail. *)
       let size = threshold_bytes + 1 + Svagc_util.Rng.int rng (2 * Addr.page_size) in
       ignore (Heap.alloc heap ~size ~n_refs:0 ~cls:0)
     done
   with Heap.Heap_full -> ());
  let ratio =
    float_of_int (Heap.wasted_bytes heap) /. float_of_int (Heap.used_bytes heap)
  in
  Alcotest.(check bool) "waste under 5% of heap" true (ratio < 0.05)

let test_heap_full () =
  let heap = fresh_heap ~size_mib:1 () in
  Alcotest.check_raises "full" Heap.Heap_full (fun () ->
      for _ = 1 to 100 do
        ignore (Heap.alloc heap ~size:(64 * kib) ~n_refs:0 ~cls:0)
      done)

let test_alloc_chunk () =
  let heap = fresh_heap () in
  ignore (Heap.alloc heap ~size:100 ~n_refs:0 ~cls:0);
  let chunk = Heap.alloc_chunk heap ~bytes:(64 * kib) in
  Alcotest.(check bool) "chunk aligned" true (Addr.is_page_aligned chunk);
  Alcotest.(check bool) "top advanced" true (Heap.top heap >= chunk + (64 * kib))

(* --- Roots and references --- *)

let test_roots () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  Alcotest.(check int) "no roots" 0 (Heap.root_count heap);
  Heap.add_root heap o;
  Heap.add_root heap o;
  Alcotest.(check int) "idempotent add" 1 (Heap.root_count heap);
  Heap.remove_root heap o;
  Alcotest.(check int) "removed" 0 (Heap.root_count heap)

let test_refs () =
  let heap = fresh_heap () in
  let a = Heap.alloc heap ~size:64 ~n_refs:2 ~cls:0 in
  let b = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "slots start null" true
    (Array.for_all (fun r -> r == Obj_model.null) a.Obj_model.refs);
  Heap.set_ref heap a ~slot:0 (Some b);
  (match Heap.deref heap a ~slot:0 with
  | Some o -> Alcotest.(check int) "deref" b.Obj_model.id o.Obj_model.id
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check bool) "null slot" true (Heap.deref heap a ~slot:1 = None);
  (* An object of another heap is no target of this one. *)
  let other =
    Heap.create (Heap.proc heap) ~base:(Heap.limit heap) ~size_bytes:(1024 * kib) ()
  in
  let foreign = Heap.alloc other ~size:64 ~n_refs:0 ~cls:0 in
  Heap.set_ref heap a ~slot:1 (Some foreign);
  Alcotest.(check bool) "foreign target raises" true
    (try ignore (Heap.deref heap a ~slot:1); false with Invalid_argument _ -> true);
  Heap.set_ref heap a ~slot:0 None;
  Alcotest.(check bool) "cleared" true (Heap.deref heap a ~slot:0 = None)

(* The object set after a committed collection in which [a] moved up a
   page and [b] died. *)
let test_commit_survivors () =
  let heap = fresh_heap () in
  let a = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  let b = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  let old_a = a.Obj_model.addr in
  a.Obj_model.marked <- true;
  a.Obj_model.forward <- a.Obj_model.addr + 4096;
  Heap.commit_survivors heap [| a |] ~top:(a.Obj_model.forward + 64);
  let objs = Svagc_util.Vec.to_list (Heap.objects heap) in
  Alcotest.(check bool) "survivor only, at its new address" true
    (match objs with [ o ] -> o == a | _ -> false);
  Alcotest.(check int) "moved" (old_a + 4096) a.Obj_model.addr;
  Alcotest.(check bool) "dead object gone" true (not (List.memq b objs));
  Alcotest.(check int) "survivors only" 1 (Heap.object_count heap);
  Alcotest.(check bool) "mark cleared" false a.Obj_model.marked;
  Alcotest.(check int) "forward cleared" 0 a.Obj_model.forward;
  Alcotest.(check int) "top" (a.Obj_model.addr + 64) (Heap.top heap)

(* --- Root order --- *)

type root_op = Add of int | Remove_root of int | Reset

let root_ids = Array.init 400 (fun i -> if i < 300 then i + 1 else (i * 7919) + 1_000_000)

let root_op_gen =
  let id = QCheck.Gen.int_bound (Array.length root_ids - 1) in
  QCheck.Gen.(
    frequency
      [
        (30, map (fun k -> Add k) id);
        (10, map (fun k -> Remove_root k) id);
        (1, return Reset);
      ])

let pp_root_op = function
  | Add k -> Printf.sprintf "add %d" root_ids.(k)
  | Remove_root k -> Printf.sprintf "remove %d" root_ids.(k)
  | Reset -> "reset"

(* Mark's cost vector and evacuation follow [iter_roots], so its order is
   pinned: that of a generic table keyed by id under the same
   operations, across resizes and resets. *)
let prop_root_order =
  qtest ~count:200 "iter_roots visits in generic Hashtbl order"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_root_op ops))
       QCheck.Gen.(list_size (int_range 1 800) root_op_gen))
    (fun ops ->
      let heap = fresh_heap () in
      let objs =
        Array.map
          (fun id -> Obj_model.make ~id ~addr:0 ~size:64 ~cls:0 ~n_refs:0)
          root_ids
      in
      let model = Hashtbl.create 64 in
      let order () =
        let seen = ref [] in
        Heap.iter_roots heap (fun o -> seen := o.Obj_model.id :: !seen);
        let expect = ref [] in
        Hashtbl.iter (fun id _ -> expect := id :: !expect) model;
        !seen = !expect
      in
      List.for_all
        (fun op ->
          (match op with
          | Add k ->
            Heap.add_root heap objs.(k);
            Hashtbl.replace model root_ids.(k) ()
          | Remove_root k ->
            Heap.remove_root heap objs.(k);
            Hashtbl.remove model root_ids.(k)
          | Reset ->
            Heap.reset heap;
            Hashtbl.reset model);
          Heap.root_count heap = Hashtbl.length model && order ())
        ops)

(* --- Address index --- *)

type index_op = Replace of int | Remove of int | Find of int

let index_filler =
  Obj_model.make ~id:0 ~addr:(-1) ~size:Obj_model.header_bytes ~cls:0 ~n_refs:0

(* Page-aligned keys that share a home slot at a given capacity. *)
let colliding ~capacity ~home n =
  let rec go k acc n =
    if n = 0 then acc
    else if Addr_index.home ~capacity k = home then go (k + 4096) (k :: acc) (n - 1)
    else go (k + 4096) acc n
  in
  go 4096 [] n

(* At the starting 16 slots: one run homed at the last slot, so its probe
   chain wraps past the end, and one run mid-table, so deletes land in the
   middle of a chain; two more runs collide only after one and two
   doublings; a few keys are arbitrary. *)
let index_keys =
  Array.of_list
    (List.sort_uniq compare
       (colliding ~capacity:16 ~home:15 6
       @ colliding ~capacity:16 ~home:7 6
       @ colliding ~capacity:32 ~home:31 4
       @ colliding ~capacity:64 ~home:0 4
       @ [ 0; 17; 4097; 1 lsl 40 ]))

let index_op_gen =
  let key = QCheck.Gen.int_bound (Array.length index_keys - 1) in
  QCheck.Gen.(
    frequency
      [
        (20, map (fun k -> Replace k) key);
        (10, map (fun k -> Remove k) key);
        (9, map (fun k -> Find k) key);
      ])

let pp_index_op = function
  | Replace k -> Printf.sprintf "replace %d" index_keys.(k)
  | Remove k -> Printf.sprintf "remove %d" index_keys.(k)
  | Find k -> Printf.sprintf "find %d" index_keys.(k)

(* Every operation is mirrored on a [Hashtbl] model, and after each one
   every key of the pool must look up the same way in both: a delete that
   broke a probe chain strands a later key of that chain. *)
let prop_index_matches_model =
  qtest ~count:500 "address index agrees with a Hashtbl model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_index_op ops))
       QCheck.Gen.(list_size (int_range 1 300) index_op_gen))
    (fun ops ->
      let idx = Addr_index.create index_filler in
      let model = Hashtbl.create 16 in
      let next_id = ref 1 in
      let agrees key =
        let expect = Hashtbl.find_opt model key in
        let found =
          match Addr_index.find idx key with
          | o -> Some o
          | exception Not_found -> None
        in
        let same a b =
          match (a, b) with Some a, Some b -> a == b | None, None -> true | _ -> false
        in
        same expect found
        && Addr_index.find_or_filler idx key
           == Option.value expect ~default:index_filler
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace k ->
            let key = index_keys.(k) in
            let o = Obj_model.make ~id:!next_id ~addr:key ~size:64 ~cls:0 ~n_refs:0 in
            incr next_id;
            Addr_index.replace idx key o;
            Hashtbl.replace model key o
          | Remove k ->
            Addr_index.remove idx index_keys.(k);
            Hashtbl.remove model index_keys.(k)
          | Find _ -> ());
          let cap = Addr_index.capacity idx in
          Addr_index.length idx = Hashtbl.length model
          && cap land (cap - 1) = 0
          && 2 * Addr_index.length idx <= cap
          && Array.for_all agrees index_keys
          && Addr_index.find_or_filler idx (-1) == index_filler)
        ops)

let test_index_capacity () =
  let idx = Addr_index.create index_filler in
  Alcotest.(check int) "starts at 16 slots" 16 (Addr_index.capacity idx);
  let dummy = Obj_model.make ~id:1 ~addr:0 ~size:64 ~cls:0 ~n_refs:0 in
  for k = 1 to 8 do
    Addr_index.replace idx (k * 4096) dummy
  done;
  Alcotest.(check int) "load one half" 16 (Addr_index.capacity idx);
  Addr_index.replace idx (9 * 4096) dummy;
  Alcotest.(check int) "doubles" 32 (Addr_index.capacity idx);
  Alcotest.(check bool) "empty marker is no address" true
    (match Addr_index.find idx (-1) with _ -> false | exception Not_found -> true);
  Alcotest.(check bool) "negative address rejected" true
    (try Addr_index.replace idx (-1) dummy; false with Invalid_argument _ -> true)

(* --- Payload IO --- *)

let test_payload_roundtrip () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  Heap.write_payload heap o ~off:10 (Bytes.of_string "payload");
  Alcotest.(check string) "roundtrip" "payload"
    (Bytes.to_string (Heap.read_payload heap o ~off:10 ~len:7))

let test_payload_bounds () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:64 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "escape rejected" true
    (try Heap.write_payload heap o ~off:60 (Bytes.of_string "xxx"); false
     with Invalid_argument _ -> true)

let test_header_stamp () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "header matches" true (Heap.header_matches heap o);
  (* Corrupt the stamped id in simulated memory: mismatch must be seen. *)
  let aspace = Process.aspace (Heap.proc heap) in
  Address_space.write_i64 aspace ~va:o.Obj_model.addr 999L;
  Alcotest.(check bool) "corruption detected" false (Heap.header_matches heap o)

let test_checksum_covers_object () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  let c0 = Heap.checksum_object heap o in
  Heap.write_payload heap o ~off:1000 (Bytes.of_string "!");
  Alcotest.(check bool) "payload change detected" true (c0 <> Heap.checksum_object heap o)

(* --- Stats --- *)

let test_stats () =
  let heap = fresh_heap () in
  ignore (Heap.alloc heap ~size:1000 ~n_refs:0 ~cls:0);
  ignore (Heap.alloc heap ~size:2000 ~n_refs:0 ~cls:0);
  Alcotest.(check int) "live bytes" 3000 (Heap.live_bytes heap);
  Alcotest.(check int) "count" 2 (Heap.object_count heap);
  Alcotest.(check int) "used = top - base" (Heap.top heap - Heap.base heap)
    (Heap.used_bytes heap)

(* --- TLAB --- *)

let test_tlab_small_up_large_down () =
  let heap = fresh_heap () in
  let tlab = Tlab.create heap ~thread_id:0 ~chunk_bytes:(256 * kib) in
  let s1 = Tlab.alloc tlab ~size:100 ~n_refs:0 ~cls:0 in
  let s2 = Tlab.alloc tlab ~size:100 ~n_refs:0 ~cls:0 in
  let l1 = Tlab.alloc tlab ~size:threshold_bytes ~n_refs:0 ~cls:0 in
  let l2 = Tlab.alloc tlab ~size:threshold_bytes ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "smalls grow up" true
    (s2.Obj_model.addr > s1.Obj_model.addr);
  Alcotest.(check bool) "larges grow down" true
    (l2.Obj_model.addr < l1.Obj_model.addr);
  Alcotest.(check bool) "larges aligned" true
    (Addr.is_page_aligned l1.Obj_model.addr && Addr.is_page_aligned l2.Obj_model.addr);
  Alcotest.(check bool) "populations separated" true
    (Obj_model.end_addr s2 <= l2.Obj_model.addr)

let test_tlab_new_chunk_on_exhaustion () =
  let heap = fresh_heap () in
  let tlab = Tlab.create heap ~thread_id:0 ~chunk_bytes:(64 * kib) in
  (* 64 KiB chunk: the fourth 20 KiB small object cannot fit. *)
  let objs = List.init 5 (fun _ -> Tlab.alloc tlab ~size:(20 * kib) ~n_refs:0 ~cls:0) in
  Alcotest.(check int) "all allocated" 5 (List.length objs);
  Alcotest.(check int) "registered in heap" 5 (Heap.object_count heap)

let test_tlab_huge_bypasses () =
  let heap = fresh_heap () in
  let tlab = Tlab.create heap ~thread_id:0 ~chunk_bytes:(64 * kib) in
  let huge = Tlab.alloc tlab ~size:(200 * kib) ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "shared-space path, aligned" true
    (Addr.is_page_aligned huge.Obj_model.addr);
  Alcotest.(check int) "gap untouched (no chunk yet)" 0 (Tlab.unused_gap tlab)

let test_tlab_retire () =
  let heap = fresh_heap () in
  let tlab = Tlab.create heap ~thread_id:0 ~chunk_bytes:(64 * kib) in
  ignore (Tlab.alloc tlab ~size:1000 ~n_refs:0 ~cls:0);
  Alcotest.(check bool) "gap open" true (Tlab.unused_gap tlab > 0);
  Tlab.retire tlab;
  Alcotest.(check int) "gap dropped" 0 (Tlab.unused_gap tlab)

let prop_tlab_no_overlap =
  qtest ~count:40 "TLAB allocations never overlap"
    QCheck.(pair small_int (list_of_size Gen.(1 -- 40) (int_range 24 50_000)))
    (fun (seed, sizes) ->
      ignore seed;
      let heap = fresh_heap ~size_mib:32 () in
      let tlab = Tlab.create heap ~thread_id:0 ~chunk_bytes:(256 * kib) in
      let objs = List.map (fun size -> Tlab.alloc tlab ~size ~n_refs:0 ~cls:0) sizes in
      let ranges =
        List.sort compare
          (List.map (fun o -> (o.Obj_model.addr, Obj_model.end_addr o)) objs)
      in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
        | _ -> true
      in
      disjoint ranges)

(* --- Promotion hooks (place / adopt_survivors / reset) --- *)

(* Sizes on both sides of the swapping threshold, and right at it. *)
let straddling_sizes =
  QCheck.(
    list_of_size
      Gen.(1 -- 40)
      (oneof
         [
           int_range Obj_model.header_bytes 4096;
           int_range (threshold_bytes - 64) (threshold_bytes + 64);
           int_range threshold_bytes (3 * threshold_bytes);
         ]))

(* Algorithm 3 is one rule: the same sizes laid out by [place] from a
   heap's top, by [alloc] one at a time, and by a full-heap [Forward.run]
   over what [alloc] placed give the same addresses, the same final top
   and the same alignment waste. *)
let prop_place_matches_alloc =
  qtest ~count:50 "place = alloc placement" straddling_sizes (fun sizes ->
      let allocated = fresh_heap () and placed = fresh_heap () in
      let objs =
        Array.of_list
          (List.map (fun size -> Heap.alloc allocated ~size ~n_refs:0 ~cls:0) sizes)
      in
      let records =
        Array.map
          (fun o ->
            Obj_model.make ~id:o.Obj_model.id ~addr:0 ~size:o.Obj_model.size
              ~cls:0 ~n_refs:0)
          objs
      in
      let top = Heap.place placed ~top:(Heap.top placed) records in
      Array.iter (fun o -> o.Obj_model.marked <- true) objs;
      let fwd = Svagc_gc.Forward.run allocated ~threads:1 in
      top = Heap.top allocated
      && fwd.Svagc_gc.Forward.new_top = Heap.top allocated
      && fwd.Svagc_gc.Forward.waste_bytes = Heap.wasted_bytes allocated
      && Array.for_all2
           (fun o r ->
             r.Obj_model.forward = o.Obj_model.addr
             && o.Obj_model.forward = o.Obj_model.addr)
           objs records)

let test_adopt () =
  let src = fresh_heap () and dst = fresh_heap () in
  let o = Heap.alloc src ~size:4096 ~n_refs:0 ~cls:0 in
  let top = Heap.place dst ~top:(Heap.top dst) [| o |] in
  Heap.ensure_mapped_to dst top;
  Heap.adopt_survivors dst [| o |] ~top;
  Alcotest.(check int) "adopted" 1 (Heap.object_count dst);
  Alcotest.(check int) "moved to its placement" (Heap.base dst) o.Obj_model.addr;
  Alcotest.(check int) "forward cleared" 0 o.Obj_model.forward;
  Alcotest.(check int) "top advanced" top (Heap.top dst);
  Alcotest.(check bool) "in the object set" true
    (match Svagc_util.Vec.to_list (Heap.objects dst) with
    | [ found ] -> found == o
    | _ -> false)

let test_reset_empties () =
  let heap = fresh_heap () in
  let o = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  Heap.add_root heap o;
  Heap.reset heap;
  Alcotest.(check int) "no objects" 0 (Heap.object_count heap);
  Alcotest.(check int) "no roots" 0 (Heap.root_count heap);
  Alcotest.(check int) "top back to base" (Heap.base heap) (Heap.top heap);
  (* The space is reusable immediately. *)
  let o2 = Heap.alloc heap ~size:4096 ~n_refs:0 ~cls:0 in
  Alcotest.(check int) "fresh allocation at base" (Heap.base heap) o2.Obj_model.addr

(* --- LOS --- *)

module Los = Svagc_heap.Los

let fresh_los ?(size_mib = 4) () =
  let machine = Machine.create ~phys_mib:16 Cost_model.xeon_6130 in
  Los.create (Process.create machine) ~size_bytes:(size_mib * 1024 * 1024) ()

let test_los_alloc_free () =
  let los = fresh_los () in
  let a = Los.alloc los ~size:(10 * 4096) ~n_refs:0 ~cls:0 in
  let b = Los.alloc los ~size:(20 * 4096) ~n_refs:0 ~cls:0 in
  Alcotest.(check int) "two resident" 2 (Los.object_count los);
  Alcotest.(check bool) "disjoint" true
    (Obj_model.end_addr a <= b.Obj_model.addr
    || Obj_model.end_addr b <= a.Obj_model.addr);
  Los.free los a;
  Alcotest.(check int) "one resident" 1 (Los.object_count los);
  Alcotest.(check bool) "double free rejected" true
    (try Los.free los a; false with Invalid_argument _ -> true)

let test_los_first_fit_reuses_hole () =
  let los = fresh_los () in
  let a = Los.alloc los ~size:(16 * 4096) ~n_refs:0 ~cls:0 in
  let _b = Los.alloc los ~size:(16 * 4096) ~n_refs:0 ~cls:0 in
  Los.free los a;
  let c = Los.alloc los ~size:(8 * 4096) ~n_refs:0 ~cls:0 in
  Alcotest.(check int) "hole reused (first fit)" a.Obj_model.addr c.Obj_model.addr

let test_los_coalescing () =
  let los = fresh_los () in
  let objs =
    List.init 4 (fun _ -> Los.alloc los ~size:(32 * 4096) ~n_refs:0 ~cls:0)
  in
  (* Free out of order: 1, 3, 0, 2 — must coalesce back to one hole plus
     the untouched tail. *)
  (match objs with
  | [ o0; o1; o2; o3 ] ->
    Los.free los o1;
    Los.free los o3;
    (* o3 coalesces with the tail hole immediately: o1-hole + (o3+tail). *)
    Alcotest.(check int) "o3 merged with tail" 2 (Los.hole_count los);
    Los.free los o0;
    Alcotest.(check int) "o0 merged with o1-hole" 2 (Los.hole_count los);
    Los.free los o2;
    Alcotest.(check int) "fully coalesced" 1 (Los.hole_count los);
    Alcotest.(check int) "all bytes back" (Los.capacity_bytes los)
      (Los.free_bytes los)
  | _ -> Alcotest.fail "fixture")

let test_los_fragmentation_failure () =
  (* Fill the region completely, then free every other object: half the
     space is free yet no large request fits — the failure mode the paper
     attributes to LOSs. *)
  let los = fresh_los ~size_mib:4 () in
  let objs =
    List.init 16 (fun _ -> Los.alloc los ~size:(64 * 4096) ~n_refs:0 ~cls:0)
  in
  Alcotest.(check int) "region exactly full" 0 (Los.free_bytes los);
  List.iteri (fun i o -> if i mod 2 = 0 then Los.free los o) objs;
  Alcotest.(check int) "half free" (8 * 64 * 4096) (Los.free_bytes los);
  Alcotest.(check bool) "but shattered" true (Los.external_fragmentation los > 0.8);
  Alcotest.(check bool) "128-page request cannot fit the holes" false
    (Los.can_fit los ~size:(128 * 4096));
  Alcotest.check_raises "Los_full despite free space" Los.Los_full (fun () ->
      ignore (Los.alloc los ~size:(128 * 4096) ~n_refs:0 ~cls:0))

let test_los_metrics () =
  let los = fresh_los () in
  Alcotest.(check (float 1e-9)) "empty region not fragmented" 0.0
    (Los.external_fragmentation los);
  Alcotest.(check int) "one hole" 1 (Los.hole_count los);
  Alcotest.(check bool) "maintenance cost grows with holes" true
    (let c1 = Los.maintenance_cost_ns los in
     let a = Los.alloc los ~size:(10 * 4096) ~n_refs:0 ~cls:0 in
     let _b = Los.alloc los ~size:(10 * 4096) ~n_refs:0 ~cls:0 in
     Los.free los a;
     Los.maintenance_cost_ns los > c1)

let prop_los_free_bytes_conserved =
  qtest ~count:40 "LOS conserves bytes across alloc/free"
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 20))
    (fun pages_list ->
      let los = fresh_los ~size_mib:8 () in
      let cap = Los.capacity_bytes los in
      let objs =
        List.filter_map
          (fun pages ->
            try Some (Los.alloc los ~size:(pages * 4096) ~n_refs:0 ~cls:0)
            with Los.Los_full -> None)
          pages_list
      in
      List.iter (Los.free los) objs;
      Los.free_bytes los = cap && Los.hole_count los = 1)

let () =
  Alcotest.run "svagc_heap"
    [
      ( "obj_model",
        [
          Alcotest.test_case "fields" `Quick test_obj_model;
          Alcotest.test_case "validation" `Quick test_obj_model_validation;
        ] );
      ( "algorithm3",
        [
          Alcotest.test_case "smalls pack" `Quick test_small_objects_pack;
          Alcotest.test_case "large aligned" `Quick test_large_object_page_aligned;
          Alcotest.test_case "below threshold packs" `Quick test_below_threshold_not_aligned;
          Alcotest.test_case "waste accounted" `Quick test_alignment_waste_accounted;
          Alcotest.test_case "fragmentation < 5%" `Quick test_fragmentation_below_5_percent;
          Alcotest.test_case "heap full" `Quick test_heap_full;
          Alcotest.test_case "alloc chunk" `Quick test_alloc_chunk;
        ] );
      ( "graph",
        [
          Alcotest.test_case "roots" `Quick test_roots;
          Alcotest.test_case "refs" `Quick test_refs;
          Alcotest.test_case "commit survivors" `Quick test_commit_survivors;
          prop_root_order;
        ] );
      ( "addr_index",
        [
          Alcotest.test_case "capacity" `Quick test_index_capacity;
          prop_index_matches_model;
        ] );
      ( "payload",
        [
          Alcotest.test_case "roundtrip" `Quick test_payload_roundtrip;
          Alcotest.test_case "bounds" `Quick test_payload_bounds;
          Alcotest.test_case "header stamp" `Quick test_header_stamp;
          Alcotest.test_case "checksum" `Quick test_checksum_covers_object;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "promotion-hooks",
        [
          prop_place_matches_alloc;
          Alcotest.test_case "adopt" `Quick test_adopt;
          Alcotest.test_case "reset" `Quick test_reset_empties;
        ] );
      ( "los",
        [
          Alcotest.test_case "alloc/free" `Quick test_los_alloc_free;
          Alcotest.test_case "first fit" `Quick test_los_first_fit_reuses_hole;
          Alcotest.test_case "coalescing" `Quick test_los_coalescing;
          Alcotest.test_case "fragmentation failure" `Quick
            test_los_fragmentation_failure;
          Alcotest.test_case "metrics" `Quick test_los_metrics;
          prop_los_free_bytes_conserved;
        ] );
      ( "tlab",
        [
          Alcotest.test_case "bidirectional" `Quick test_tlab_small_up_large_down;
          Alcotest.test_case "chunk refill" `Quick test_tlab_new_chunk_on_exhaustion;
          Alcotest.test_case "huge bypass" `Quick test_tlab_huge_bypasses;
          Alcotest.test_case "retire" `Quick test_tlab_retire;
          prop_tlab_no_overlap;
        ] );
    ]
