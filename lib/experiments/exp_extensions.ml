(** Extensions beyond the paper's evaluation, exercising the rest of its
    Table I and §VI outlook:

    1. Minor (copying) collections — the generational nursery promotes
       survivors with SwapVA vs memmove (Table I row 2).
    2. Concurrent evacuation — the semispace model relocates with
       independent SwapVA calls vs memmove (Table I row 3).
    3. NVM wear (§VI) — on a hybrid DRAM/NVM heap, every byte a full GC
       copies is an NVM write; SwapVA turns those into PTE updates.  The
       write volume is read off the machine's perf counters. *)

open Svagc_vmem
module Generational = Svagc_gc.Generational
module Semispace = Svagc_gc.Semispace
module Compact = Svagc_gc.Compact
module Move_object = Svagc_core.Move_object
module Config = Svagc_core.Config
module Process = Svagc_kernel.Process
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

let fresh_proc () =
  Process.create (Machine.create ~ncores:4 ~phys_mib:256 Cost_model.xeon_6130)

(* --- 1. minor collections --- *)

let minor_case ~swapva =
  let gen =
    Generational.create (fresh_proc ()) ~young_bytes:(16 * 1024 * 1024)
      ~old_bytes:(64 * 1024 * 1024) ()
  in
  let rng = Svagc_util.Rng.create ~seed:3 in
  (* Nursery full of mixed objects; half survive. *)
  for i = 0 to 150 do
    let size =
      if i mod 3 = 0 then (48 * 1024) + Svagc_util.Rng.int rng 65536
      else 128 + Svagc_util.Rng.int rng 2048
    in
    let obj = Generational.alloc gen ~size ~n_refs:1 ~cls:0 in
    if i mod 2 = 0 then Generational.add_root gen obj
  done;
  let mover =
    if swapva then Move_object.mover Config.default else Compact.memmove_mover
  in
  Generational.minor gen ~mover

let minor_rows () =
  let mm = minor_case ~swapva:false in
  let sv = minor_case ~swapva:true in
  [
    [ "minor pause"; Report.ns mm.Generational.pause_ns;
      Report.ns sv.Generational.pause_ns;
      Report.speedup (mm.Generational.pause_ns /. sv.Generational.pause_ns) ];
    [ "promoted objects"; string_of_int mm.Generational.promoted_objects;
      string_of_int sv.Generational.promoted_objects; "" ];
    [ "promoted via SwapVA"; string_of_int mm.Generational.swapped_objects;
      string_of_int sv.Generational.swapped_objects; "" ];
  ]

(* --- 2. concurrent evacuation --- *)

let evac_case ~swapva =
  let semi =
    Semispace.create (fresh_proc ()) ~space_bytes:(24 * 1024 * 1024) ()
  in
  let heap = Semispace.heap semi in
  let rng = Svagc_util.Rng.create ~seed:4 in
  for i = 0 to 120 do
    let size =
      if i mod 2 = 0 then (64 * 1024) + Svagc_util.Rng.int rng 65536
      else 256 + Svagc_util.Rng.int rng 4096
    in
    let obj = Semispace.alloc semi ~size ~n_refs:0 ~cls:0 in
    if i mod 2 = 0 then Svagc_heap.Heap.add_root heap obj
  done;
  let mover =
    if swapva then
      (* Concurrent collectors issue relocations independently: no
         aggregation, no pinning, targeted shootdowns (Table I row 3). *)
      Move_object.mover
        { Config.default with Config.aggregation_batch = 1;
          flush = Svagc_kernel.Shootdown.Process_targeted }
    else Compact.memmove_mover
  in
  Semispace.collect semi ~mover

let evac_rows () =
  let mm = evac_case ~swapva:false in
  let sv = evac_case ~swapva:true in
  [
    [ "cycle work (pause + concurrent)";
      Report.ns (mm.Semispace.pause_ns +. mm.Semispace.concurrent_ns);
      Report.ns (sv.Semispace.pause_ns +. sv.Semispace.concurrent_ns);
      Report.speedup
        ((mm.Semispace.pause_ns +. mm.Semispace.concurrent_ns)
        /. (sv.Semispace.pause_ns +. sv.Semispace.concurrent_ns)) ];
    [ "stop-the-world slice"; Report.ns mm.Semispace.pause_ns;
      Report.ns sv.Semispace.pause_ns; "" ];
    [ "relocated via SwapVA"; string_of_int mm.Semispace.swapped_objects;
      string_of_int sv.Semispace.swapped_objects; "" ];
  ]

(* --- 3. NVM wear --- *)

let nvm_case kind =
  let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
  let w = Svagc_workloads.Sigverify.default in
  let r =
    Svagc_workloads.Runner.run ~machine ~steps:40 ~min_gcs:4
      ~collector_of:(Exp_common.collector_of kind) w
  in
  let cycles = r.Svagc_workloads.Runner.summary.Svagc_gc.Gc_stats.cycles in
  let copied = r.Svagc_workloads.Runner.summary.Svagc_gc.Gc_stats.total_bytes_copied in
  let remapped =
    r.Svagc_workloads.Runner.summary.Svagc_gc.Gc_stats.total_bytes_remapped
  in
  (cycles, copied, remapped)

let nvm_rows () =
  let c_mm, copied_mm, _ = nvm_case Exp_common.Lisp2_memmove in
  let c_sv, copied_sv, remapped_sv = nvm_case Exp_common.Svagc in
  let per_cycle c v = if c = 0 then 0 else v / c in
  (* A PTE update writes 8 bytes; count both swapped slots. *)
  let pte_writes = remapped_sv / Addr.page_size * 16 in
  [
    [ "full GCs observed"; string_of_int c_mm; string_of_int c_sv ];
    [ "NVM bytes written by GC copying";
      Report.bytes copied_mm; Report.bytes copied_sv ];
    [ "per cycle"; Report.bytes (per_cycle c_mm copied_mm);
      Report.bytes (per_cycle c_sv copied_sv) ];
    [ "page-table bytes written instead"; "0B"; Report.bytes pte_writes ];
  ]

(* --- 4. LOS vs conventional heap --- *)

(* The same large-object churn trace, twice: into a non-moving LOS (holes
   accumulate until a fit fails despite free space) and into an SVAGC
   conventional heap (compaction keeps it dense for a few microseconds of
   PTE swapping per cycle). *)
let los_rows () =
  let region = 24 * 1024 * 1024 in
  let window = 85 in
  (* LOS side. *)
  let proc = fresh_proc () in
  let los = Svagc_heap.Los.create proc ~size_bytes:region () in
  let rng = Svagc_util.Rng.create ~seed:12 in
  let slots = Array.make window None in
  let failure_step = ref None in
  let steps = 4000 in
  (try
     for step = 1 to steps do
       let size = (10 + Svagc_util.Rng.int rng 90) * 4096 in
       let slot = Svagc_util.Rng.int rng window in
       (match slots.(slot) with
       | Some old -> Svagc_heap.Los.free los old
       | None -> ());
       slots.(slot) <- Some (Svagc_heap.Los.alloc los ~size ~n_refs:0 ~cls:0);
       ignore step
     done
   with Svagc_heap.Los.Los_full ->
     failure_step := Some (Svagc_heap.Los.object_count los));
  let los_frag = Svagc_heap.Los.external_fragmentation los in
  let los_holes = Svagc_heap.Los.hole_count los in
  let los_free = Svagc_heap.Los.free_bytes los in
  let los_largest = Svagc_heap.Los.largest_hole_bytes los in
  (* SVAGC side: identical trace into a compacted conventional heap. *)
  let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
  let jvm =
    Svagc_core.Jvm.create machine ~name:"los-vs-svagc" ~heap_bytes:region
      ~collector_of:(Svagc_core.Svagc.collector ~config:Config.default)
      ()
  in
  let heap = Svagc_core.Jvm.heap jvm in
  let rng = Svagc_util.Rng.create ~seed:12 in
  let slots = Array.make window None in
  for _ = 1 to 4000 do
    let size = (10 + Svagc_util.Rng.int rng 90) * 4096 in
    let slot = Svagc_util.Rng.int rng window in
    (match slots.(slot) with
    | Some old -> Svagc_heap.Heap.remove_root heap old
    | None -> ());
    let obj = Svagc_core.Jvm.alloc jvm ~size ~n_refs:0 ~cls:0 in
    Svagc_heap.Heap.add_root heap obj;
    slots.(slot) <- Some obj
  done;
  [
    [ "allocation failure";
      (match !failure_step with
      | Some live -> Printf.sprintf "Los_full with %d live objects" live
      | None -> "none in 4000 steps");
      "none (compaction)" ];
    [ "external fragmentation"; Printf.sprintf "%.1f%%" (100.0 *. los_frag);
      "0% after each full GC" ];
    [ "free-list holes"; string_of_int los_holes; "n/a (bump pointer)" ];
    [ "free but unusable for a 100-page object";
      (if los_largest < 100 * 4096 then Report.bytes los_free else "0B");
      "0B" ];
    [ "price paid instead"; "-";
      Printf.sprintf "%d full GCs, %s total GC"
        (Svagc_core.Jvm.gc_count jvm)
        (Report.ns (Svagc_core.Jvm.gc_ns jvm)) ];
  ]

(* --- 5. swap engine ablation: per-page vs flat vs leaf swap --- *)

module Swapva = Svagc_kernel.Swapva

(* One request over [pages] PMD-aligned pages per side, through each of the
   three disjoint-swap engines on a fresh process.  The per-page and flat
   engines must agree bit-for-bit on simulated cost (the flat engine only
   changes how the simulator spends host time); the leaf-swap mode, an
   extension no collector uses, trades the per-page charges of whole
   512-page leaves for one [pmd_swap_ns] constant each, so its simulated
   cost drops too. *)
let swap_engine_case ~pages engine =
  let proc = fresh_proc () in
  let aspace = Process.aspace proc in
  let pmd_bytes = Addr.pages_per_pmd * Addr.page_size in
  let src = 16 * pmd_bytes and dst = 64 * pmd_bytes in
  Address_space.map_range aspace ~va:src ~pages;
  Address_space.map_range aspace ~va:dst ~pages;
  let perf = (Process.machine proc).Machine.perf in
  Perf.reset perf;
  let ns = engine proc { Swapva.src; dst; pages } in
  (ns, perf)

let swap_engine_rows ~pages =
  let case = swap_engine_case ~pages in
  let flat ~leaf_swap proc req =
    Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap req
  in
  let pp_ns, pp_perf =
    case (fun proc req ->
        Swapva.swap_disjoint_per_page proc ~pmd_caching:true req)
  in
  let flat_ns, flat_perf = case (flat ~leaf_swap:false) in
  let leaf_ns, leaf_perf = case (flat ~leaf_swap:true) in
  let row name (ns, p) =
    [
      name; Report.ns ns;
      string_of_int (Perf.get p Pt_walks);
      string_of_int (Perf.get p Pmd_cache_hits);
      string_of_int (Perf.get p Pmd_leaf_swaps);
    ]
  in
  [
    row "per-page (reference)" (pp_ns, pp_perf);
    row "flat (live)" (flat_ns, flat_perf);
    row "leaf swaps (extension)" (leaf_ns, leaf_perf);
    [ "flat == per-page cost";
      (if flat_ns = pp_ns then "bit-identical" else "MISMATCH"); ""; ""; "" ];
    [ "leaf vs per-page cost"; Report.speedup (pp_ns /. leaf_ns); ""; ""; "" ];
  ]

let run ?quick:_ () =
  Report.section
    "Extensions: SwapVA in minor / concurrent cycles, NVM wear (Table I, \
     \194\167VI)";
  Report.subsection "1. generational minor collection (memmove vs SwapVA)";
  Table.print ~headers:[ "metric"; "memmove"; "swapva"; "gain" ] (minor_rows ());
  Report.subsection "2. semispace concurrent evacuation (memmove vs SwapVA)";
  Table.print ~headers:[ "metric"; "memmove"; "swapva"; "gain" ] (evac_rows ());
  Report.subsection "3. NVM write volume of full GCs (Sigverify)";
  Table.print ~headers:[ "metric"; "memmove GC"; "SVAGC" ] (nvm_rows ());
  Report.subsection
    "4. Large Object Space vs conventional heap (paper \194\167I: LOS \
     fragmentation)";
  Table.print ~headers:[ "metric"; "non-moving LOS"; "SVAGC heap" ] (los_rows ());
  Report.subsection
    "5. disjoint-swap engine ablation (2048 pages, PMD-aligned)";
  Table.print
    ~headers:
      [ "engine"; "simulated cost"; "walks"; "pmd hits"; "leaf swaps" ]
    (swap_engine_rows ~pages:(4 * Addr.pages_per_pmd));
  Report.note
    "hybrid-memory heaps (paper \194\167VI): zero-copy compaction removes \
     nearly all GC-induced NVM writes, directly reducing wear"
