(* Tests for the Table I extension collectors: the generational nursery
   (minor copying with SwapVA) and the semispace evacuation model. *)

open Svagc_vmem
open Svagc_heap
module Generational = Svagc_gc.Generational
module Semispace = Svagc_gc.Semispace
module Compact = Svagc_gc.Compact
module Lisp2 = Svagc_gc.Lisp2
module Gc_stats = Svagc_gc.Gc_stats
module Move_object = Svagc_core.Move_object
module Config = Svagc_core.Config

let qtest ?(count = 10) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let machine () = Machine.create ~ncores:4 ~phys_mib:128 Cost_model.xeon_6130

let proc () = Svagc_kernel.Process.create (machine ())

let minor_config =
  (* Table I row 2: aggregation + PMD caching on, overlapping not
     applicable (spaces are disjoint), pinning per Algorithm 4. *)
  Config.default

let swap_mover = Move_object.mover minor_config

(* --- Generational --- *)

let gen_fixture () =
  Generational.create (proc ()) ~young_bytes:(8 * 1024 * 1024)
    ~old_bytes:(32 * 1024 * 1024) ()

let populate_young gen ~n ~rng =
  List.init n (fun i ->
      let size =
        if i mod 3 = 0 then (40 * 1024) + Svagc_util.Rng.int rng 32768
        else 64 + Svagc_util.Rng.int rng 1024
      in
      let obj = Generational.alloc gen ~size ~n_refs:1 ~cls:0 in
      if i mod 2 = 0 then Generational.add_root gen obj;
      obj)

let test_minor_promotes_survivors () =
  let gen = gen_fixture () in
  let rng = Svagc_util.Rng.create ~seed:1 in
  let objs = populate_young gen ~n:40 ~rng in
  let young_count = Heap.object_count (Generational.young gen) in
  let stats = Generational.minor gen ~mover:swap_mover in
  Alcotest.(check int) "roots promoted" 20 stats.Gc_stats.moved_objects;
  Alcotest.(check int) "nursery empty" 0
    (Heap.object_count (Generational.young gen));
  Alcotest.(check int) "survivors in old space" 20
    (Heap.object_count (Generational.old_space gen));
  Alcotest.(check bool) "some garbage reclaimed" true
    (stats.Gc_stats.reclaimed_bytes > 0);
  Alcotest.(check bool) "nursery had everything before" true (young_count = 40);
  (* Promoted objects live at old-space addresses. *)
  List.iteri
    (fun i o ->
      if i mod 2 = 0 then
        Alcotest.(check bool) "address in old space" true
          (o.Obj_model.addr >= Heap.base (Generational.old_space gen)))
    objs

let test_minor_uses_swapva_for_large () =
  let gen = gen_fixture () in
  let rng = Svagc_util.Rng.create ~seed:2 in
  ignore (populate_young gen ~n:40 ~rng);
  let machine = Svagc_kernel.Process.machine (Heap.proc (Generational.young gen)) in
  let flush_page_before = Perf.get machine.Machine.perf Tlb_flush_page in
  let stats = Generational.minor gen ~mover:swap_mover in
  Alcotest.(check bool) "large survivors swapped" true
    (stats.Gc_stats.swapped_objects > 0);
  (* Disjoint spaces: the Algorithm 2 (overlap) path never fires, so no
     per-page flushes were issued (Table I: Overlapping = "-" for minor). *)
  Alcotest.(check int) "overlap path never used" flush_page_before
    (Perf.get machine.Machine.perf Tlb_flush_page)

let test_minor_preserves_payloads () =
  let gen = gen_fixture () in
  let young = Generational.young gen in
  let keep =
    List.init 10 (fun i ->
        let obj = Generational.alloc gen ~size:(48 * 1024) ~n_refs:0 ~cls:0 in
        Heap.write_payload young obj ~off:0 (Bytes.make 64 (Char.chr (65 + i)));
        Generational.add_root gen obj;
        (obj, Heap.checksum_object young obj))
  in
  ignore (Generational.minor gen ~mover:swap_mover);
  let old_space = Generational.old_space gen in
  List.iter
    (fun (o, ck) ->
      Alcotest.(check int64) "payload intact after promotion" ck
        (Heap.checksum_object old_space o);
      Alcotest.(check bool) "header intact" true (Heap.header_matches old_space o))
    keep

let test_minor_rewrites_references () =
  let gen = gen_fixture () in
  let a = Generational.alloc gen ~size:1024 ~n_refs:1 ~cls:0 in
  let b = Generational.alloc gen ~size:(48 * 1024) ~n_refs:0 ~cls:0 in
  Generational.set_ref gen a ~slot:0 (Some b);
  Generational.add_root gen a;
  (* b unrooted but reachable from a: both must be promoted, the link must
     follow. *)
  ignore (Generational.minor gen ~mover:swap_mover);
  match Generational.deref gen a ~slot:0 with
  | Some o -> Alcotest.(check int) "link follows promotion" b.Obj_model.id o.Obj_model.id
  | None -> Alcotest.fail "reference lost in promotion"

let test_old_to_young_roots () =
  let gen = gen_fixture () in
  (* An old object keeps a young one alive (remembered-set behaviour). *)
  let elder = Generational.alloc gen ~size:1024 ~n_refs:1 ~cls:0 in
  Generational.add_root gen elder;
  ignore (Generational.minor gen ~mover:swap_mover);
  (* elder now lives in the old space. *)
  let youngling = Generational.alloc gen ~size:2048 ~n_refs:0 ~cls:0 in
  Generational.set_ref gen elder ~slot:0 (Some youngling);
  ignore (Generational.minor gen ~mover:swap_mover);
  (match Generational.deref gen elder ~slot:0 with
  | Some o ->
    Alcotest.(check int) "young object survived via old->young ref"
      youngling.Obj_model.id o.Obj_model.id;
    Alcotest.(check bool) "and was promoted" true
      (o.Obj_model.addr >= Heap.base (Generational.old_space gen))
  | None -> Alcotest.fail "old->young reference dropped")

let test_promotion_overflow () =
  let gen =
    Generational.create (proc ()) ~young_bytes:(4 * 1024 * 1024)
      ~old_bytes:(1024 * 1024) ()
  in
  (* Every object stays rooted: the minor that a full nursery triggers has
     more survivors than the old space holds. *)
  Alcotest.check_raises "alloc raises" Generational.Out_of_memory (fun () ->
      for _ = 1 to 80 do
        Generational.add_root gen
          (Generational.alloc gen ~size:(64 * 1024) ~n_refs:0 ~cls:0)
      done);
  let young = Generational.young gen and old_space = Generational.old_space gen in
  Alcotest.(check int) "nothing promoted" 0 (Heap.object_count old_space);
  Alcotest.(check bool) "nursery kept its objects" true
    (Heap.object_count young > 0);
  List.iter
    (fun (name, heap) ->
      Alcotest.(check (result unit (list string))) name (Ok ()) (Heap.audit heap))
    [ ("young audit", young); ("old audit", old_space) ]

let test_alloc_survives_pressure () =
  let gen =
    Generational.create (proc ()) ~young_bytes:(4 * 1024 * 1024)
      ~old_bytes:(12 * 1024 * 1024) ()
  in
  let rng = Svagc_util.Rng.create ~seed:9 in
  (* Sustained churn: rooted window of 16 objects, the rest garbage. *)
  let window = Array.make 16 None in
  for i = 0 to 800 do
    let size = 16 * 1024 in
    let obj = Generational.alloc gen ~size ~n_refs:0 ~cls:0 in
    let slot = Svagc_util.Rng.int rng 16 in
    (match window.(slot) with
    | Some old -> Generational.remove_root gen old
    | None -> ());
    Generational.add_root gen obj;
    window.(slot) <- Some obj;
    ignore i
  done;
  Alcotest.(check bool) "minors happened" true
    (List.length (Generational.minors gen) >= 2)

(* A minor promotes the small object into the old space, then the big one
   is pretenured there: both must keep distinct ids, which key the old
   space's root set. *)
let test_promoted_and_pretenured_ids_differ () =
  let gen =
    Generational.create (proc ()) ~young_bytes:(1024 * 1024)
      ~old_bytes:(8 * 1024 * 1024) ()
  in
  let small = Generational.alloc gen ~size:4096 ~n_refs:0 ~cls:0 in
  Generational.add_root gen small;
  let big = Generational.alloc gen ~size:(2 * 1024 * 1024) ~n_refs:0 ~cls:0 in
  Generational.add_root gen big;
  let old_space = Generational.old_space gen in
  Alcotest.(check bool) "ids differ" true (small.Obj_model.id <> big.Obj_model.id);
  Alcotest.(check int) "both rooted in the old space" 2 (Heap.root_count old_space);
  Generational.remove_root gen big;
  let rooted = ref [] in
  Heap.iter_roots old_space (fun o -> rooted := o :: !rooted);
  Alcotest.(check bool) "the small object stays rooted" true
    (match !rooted with [ o ] -> o == small | _ -> false)

(* On i5-7600 one of four copy streams gets min (11, 26 / 4) = 6.5 B/ns:
   the minor's four copy threads together cannot beat the machine's
   26 B/ns ceiling.  Sixteen equal survivors split evenly across them, so
   the makespan sits just above that floor. *)
let test_minor_copy_saturates () =
  let machine = Machine.create ~ncores:4 ~phys_mib:128 Cost_model.i5_7600 in
  let gen =
    Generational.create (Svagc_kernel.Process.create machine)
      ~young_bytes:(8 * 1024 * 1024) ~old_bytes:(32 * 1024 * 1024) ()
  in
  for _ = 1 to 16 do
    Generational.add_root gen
      (Generational.alloc gen ~size:(48 * 1024) ~n_refs:0 ~cls:0)
  done;
  let stats = Generational.minor gen ~mover:Compact.memmove_mover in
  Alcotest.(check int) "every survivor copied" (16 * 48 * 1024)
    stats.Gc_stats.bytes_copied;
  let floor =
    float_of_int stats.Gc_stats.bytes_copied
    /. Cost_model.i5_7600.Cost_model.machine_copy_bw
  in
  let compact = stats.Gc_stats.compact_ns in
  if compact < floor then
    Alcotest.failf "copy phase %.0f ns beats the bandwidth ceiling's %.0f ns"
      compact floor;
  if compact > floor *. 1.1 then
    Alcotest.failf "copy phase %.0f ns, over 1.1x the ceiling's %.0f ns"
      compact floor

let prop_minor_deterministic =
  qtest "minor collections are deterministic"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let run () =
        let gen = gen_fixture () in
        let rng = Svagc_util.Rng.create ~seed in
        ignore (populate_young gen ~n:30 ~rng);
        Generational.minor gen ~mover:swap_mover
      in
      run () = run ())

(* --- One graph law for every collector --- *)

(* A random object graph: each object's size and reference slots (a
   target index or null), and whether it is rooted. *)
type graph = {
  objects : (int * int option list) array;
  rooted : bool array;
}

let graph_arb =
  let gen =
    QCheck.Gen.(
      int_range 1 24 >>= fun n ->
      let obj =
        pair
          (frequency
             [ (3, int_range 64 4096); (1, int_range (40 * 1024) (96 * 1024)) ])
          (list_size (int_bound 3) (opt (int_bound (n - 1))))
      in
      map2
        (fun objects rooted -> { objects; rooted })
        (array_repeat n obj) (array_repeat n bool))
  in
  let print g =
    String.concat "; "
      (Array.to_list
         (Array.mapi
            (fun i (size, refs) ->
              Printf.sprintf "%d%s:%d->[%s]" i
                (if g.rooted.(i) then "*" else "")
                size
                (String.concat ","
                   (List.map
                      (function Some j -> string_of_int j | None -> "null")
                      refs)))
            g.objects))
  in
  QCheck.make ~print gen

(* The rooted graph [heap] holds, in id order: each object reachable from
   its roots with its reference slots as target ids and its checksum. *)
let rooted_graph heap =
  let seen = Hashtbl.create 32 in
  let rec visit o =
    if not (Hashtbl.mem seen o.Obj_model.id) then begin
      let targets =
        List.init (Array.length o.Obj_model.refs) (fun slot -> Heap.deref heap o ~slot)
      in
      Hashtbl.replace seen o.Obj_model.id
        ( List.map (Option.map (fun t -> t.Obj_model.id)) targets,
          Heap.checksum_object heap o );
      List.iter (Option.iter visit) targets
    end
  in
  Heap.iter_roots heap visit;
  List.sort compare
    (Hashtbl.fold (fun id (refs, sum) acc -> (id, refs, sum) :: acc) seen [])

(* Each collector as the heap a graph is built in, its allocator, and a
   collection that returns the heap the survivors live in. *)
let collectors ~mover =
  let mib n = n * 1024 * 1024 in
  [
    ( "lisp2",
      fun () ->
        let heap = Heap.create (proc ()) ~size_bytes:(mib 24) () in
        let cfg = Lisp2.config ~mover () in
        (heap, Heap.alloc heap, fun () -> ignore (Lisp2.collect cfg heap); heap) );
    ( "generational",
      fun () ->
        let gen =
          Generational.create (proc ()) ~young_bytes:(mib 8) ~old_bytes:(mib 32) ()
        in
        ( Generational.young gen,
          Generational.alloc gen,
          fun () ->
            ignore (Generational.minor gen ~mover);
            Generational.old_space gen ) );
    ( "semispace",
      fun () ->
        let semi = Semispace.create (proc ()) ~space_bytes:(mib 8) () in
        ( Semispace.heap semi,
          Semispace.alloc semi,
          fun () ->
            ignore (Semispace.collect semi ~mover);
            Semispace.heap semi ) );
  ]

(* Build [g] in the collector's heap, collect, and compare the rooted
   graph with a pure reachability model over [g]: the same ids, the same
   reference shape, and every survivor's bytes as they were. *)
let graph_law_holds g (name, make) =
  let heap, alloc, collect = make () in
  let objs =
    Array.mapi
      (fun i (size, refs) ->
        let o = alloc ~size ~n_refs:(List.length refs) ~cls:0 in
        let len = min 64 (size - Obj_model.header_bytes) in
        let pattern = Bytes.init len (fun k -> Char.chr (((i * 37) + k) land 255)) in
        Heap.write_payload heap o ~off:0 pattern;
        Heap.write_payload heap o ~off:(size - Obj_model.header_bytes - len) pattern;
        if g.rooted.(i) then Heap.add_root heap o;
        o)
      g.objects
  in
  Array.iteri
    (fun i (_, refs) ->
      List.iteri
        (fun slot target ->
          Heap.set_ref heap objs.(i) ~slot (Option.map (fun j -> objs.(j)) target))
        refs)
    g.objects;
  let sums = Array.map (Heap.checksum_object heap) objs in
  let reachable = Array.make (Array.length objs) false in
  let rec reach i =
    if not reachable.(i) then begin
      reachable.(i) <- true;
      List.iter (Option.iter reach) (snd g.objects.(i))
    end
  in
  Array.iteri (fun i r -> if r then reach i) g.rooted;
  let id i = objs.(i).Obj_model.id in
  let model =
    List.sort compare
      (List.filter_map
         (fun i ->
           if reachable.(i) then
             Some (id i, List.map (Option.map id) (snd g.objects.(i)), sums.(i))
           else None)
         (List.init (Array.length objs) Fun.id))
  in
  rooted_graph (collect ()) = model
  || QCheck.Test.fail_reportf "%s: the rooted graph differs from the model" name

let prop_graph_law =
  qtest ~count:25 "every collector keeps the rooted graph (random graphs)" graph_arb
    (fun g ->
      List.for_all
        (fun mover -> List.for_all (graph_law_holds g) (collectors ~mover))
        [ Compact.memmove_mover; swap_mover ])

(* --- Semispace --- *)

let semi_fixture () =
  Semispace.create (proc ()) ~space_bytes:(8 * 1024 * 1024) ()

(* Three collections, so the heaps swap roles and swap back.  Each round
   allocates through the active heap: a rooted survivor with a payload and
   an unrooted one that must be dropped. *)
let test_semispace_flip () =
  let semi = semi_fixture () in
  let mover = Move_object.mover Config.default in
  let keep = ref [] in
  for round = 0 to 2 do
    let heap = Semispace.heap semi in
    for i = 0 to 5 do
      let o = Semispace.alloc semi ~size:(64 * 1024) ~n_refs:0 ~cls:0 in
      Heap.write_payload heap o ~off:0
        (Bytes.make 32 (Char.chr (97 + (6 * round) + i)));
      Heap.add_root heap o;
      keep := (o, Heap.checksum_object heap o) :: !keep;
      ignore (Semispace.alloc semi ~size:(16 * 1024) ~n_refs:0 ~cls:0)
    done;
    ignore (Semispace.collect semi ~mover);
    let active = Semispace.heap semi in
    Alcotest.(check bool) "heaps swapped" true (active != heap);
    Alcotest.(check (result unit (list string))) "active heap audits" (Ok ())
      (Heap.audit active);
    Alcotest.(check int) "only the rooted survive" (List.length !keep)
      (Heap.object_count active);
    let ids =
      Svagc_util.Vec.fold_left (fun acc o -> o.Obj_model.id :: acc) []
        (Heap.objects active)
    in
    Alcotest.(check int) "live ids distinct" (List.length ids)
      (List.length (List.sort_uniq compare ids));
    Alcotest.(check int) "emptied heap has no objects" 0 (Heap.object_count heap);
    Alcotest.(check int) "emptied heap has no roots" 0 (Heap.root_count heap);
    List.iter
      (fun (o, ck) ->
        Alcotest.(check bool) "evacuated into the active heap" true
          (o.Obj_model.addr >= Heap.base active
          && o.Obj_model.addr < Heap.limit active);
        Alcotest.(check int64) "contents preserved" ck
          (Heap.checksum_object active o))
      !keep
  done

let test_semispace_no_overlap_path () =
  let semi = semi_fixture () in
  let heap = Semispace.heap semi in
  for _ = 1 to 12 do
    let o = Semispace.alloc semi ~size:(80 * 1024) ~n_refs:0 ~cls:0 in
    Heap.add_root heap o
  done;
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let flush_page_before = Perf.get machine.Machine.perf Tlb_flush_page in
  let stats = Semispace.collect semi ~mover:(Move_object.mover Config.default) in
  Alcotest.(check bool) "evacuation swapped" true (stats.Gc_stats.swapped_objects > 0);
  Alcotest.(check int) "Algorithm 2 never fired (disjoint spaces)"
    flush_page_before (Perf.get machine.Machine.perf Tlb_flush_page)

let test_semispace_mostly_concurrent () =
  let semi = semi_fixture () in
  let heap = Semispace.heap semi in
  for _ = 1 to 8 do
    Heap.add_root heap (Semispace.alloc semi ~size:(64 * 1024) ~n_refs:0 ~cls:0)
  done;
  let stats = Semispace.collect semi ~mover:Compact.memmove_mover in
  Alcotest.(check bool) "pause is the small slice" true
    (Gc_stats.pause_ns stats < stats.Gc_stats.concurrent_ns /. 4.0)

let test_semispace_alloc_triggers_collection () =
  let semi =
    Semispace.create (proc ()) ~space_bytes:(2 * 1024 * 1024) ()
  in
  for _ = 1 to 60 do
    ignore (Semispace.alloc semi ~size:(128 * 1024) ~n_refs:0 ~cls:0)
  done;
  Alcotest.(check bool) "cycles ran" true (List.length (Semispace.cycles semi) >= 1)

let test_semispace_oom_when_survivors_overflow () =
  let semi =
    Semispace.create (proc ()) ~space_bytes:(1024 * 1024) ()
  in
  Alcotest.check_raises "overflow" Semispace.Out_of_memory (fun () ->
      for _ = 1 to 40 do
        let o = Semispace.alloc semi ~size:(128 * 1024) ~n_refs:0 ~cls:0 in
        Heap.add_root (Semispace.heap semi) o
      done)

let () =
  Alcotest.run "svagc_generational"
    [
      ( "generational",
        [
          Alcotest.test_case "minor promotes survivors" `Quick
            test_minor_promotes_survivors;
          Alcotest.test_case "minor uses SwapVA" `Quick test_minor_uses_swapva_for_large;
          Alcotest.test_case "minor preserves payloads" `Quick
            test_minor_preserves_payloads;
          Alcotest.test_case "minor rewrites references" `Quick
            test_minor_rewrites_references;
          Alcotest.test_case "old->young roots" `Quick test_old_to_young_roots;
          Alcotest.test_case "promotion overflow raises" `Quick
            test_promotion_overflow;
          Alcotest.test_case "sustained churn" `Slow test_alloc_survives_pressure;
          Alcotest.test_case "promoted and pretenured ids differ" `Quick
            test_promoted_and_pretenured_ids_differ;
          Alcotest.test_case "minor copy saturates the machine" `Quick
            test_minor_copy_saturates;
          prop_minor_deterministic;
        ] );
      ( "semispace",
        [
          Alcotest.test_case "flip preserves contents" `Quick test_semispace_flip;
          Alcotest.test_case "no overlap path" `Quick test_semispace_no_overlap_path;
          Alcotest.test_case "mostly concurrent" `Quick test_semispace_mostly_concurrent;
          Alcotest.test_case "alloc triggers cycles" `Quick
            test_semispace_alloc_triggers_collection;
          Alcotest.test_case "survivor overflow" `Quick
            test_semispace_oom_when_survivors_overflow;
        ] );
      ("graph law", [ prop_graph_law ]);
    ]
