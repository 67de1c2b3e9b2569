(* Extension: real host parallelism with deterministic reduction
   (DESIGN.md §13).

   Everything printed here is *simulated* and therefore byte-identical no
   matter how many host domains execute it — CI diffs this experiment's
   output under DOMAINS=1 and DOMAINS=4.  Host wall-clock scaling is timed
   by the par workload of bench/host_gates.exe (BENCH_host.json). *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table
module Domain_pool = Svagc_par.Domain_pool
module Par_sweep = Svagc_par.Par_sweep
module Rng = Svagc_util.Rng
module Heap = Svagc_heap.Heap
module Lisp2 = Svagc_gc.Lisp2
module Gc_stats = Svagc_gc.Gc_stats

let base = 1 lsl 30

(* A page table scrambled by a deterministic swap schedule, so the sweep
   audits a non-trivial mapping. *)
let fixture ~arena_pages ~seed =
  let machine = Machine.create ~ncores:4 ~phys_mib:128 Cost_model.xeon_6130 in
  let proc = Process.create machine in
  Address_space.map_range (Process.aspace proc) ~va:base ~pages:arena_pages;
  let rng = Rng.create ~seed in
  for _ = 1 to 12 do
    let pages = 1 + Rng.int rng 128 in
    let a = Rng.int rng (arena_pages - (2 * pages) + 1) in
    let b = a + pages + Rng.int rng (arena_pages - a - (2 * pages) + 1) in
    ignore
      (Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false
         {
           Swapva.src = base + (a * Addr.page_size);
           dst = base + (b * Addr.page_size);
           pages;
         })
  done;
  (machine, Address_space.page_table (Process.aspace proc))

(* One traced-free LISP2 cycle over a seeded object soup, digested to the
   numbers whose bit-identity across domain counts we want to exhibit. *)
let gc_digest ~domains =
  Domain_pool.with_global ~domains (fun () ->
      let machine =
        Machine.create ~ncores:4 ~phys_mib:128 Cost_model.xeon_6130
      in
      let proc = Process.create machine in
      let heap = Heap.create proc ~size_bytes:(8 * 1024 * 1024) () in
      let rng = Rng.create ~seed:31 in
      let prev = ref None in
      for i = 0 to 119 do
        let size =
          if Rng.int rng 10 < 3 then (40 * 1024) + Rng.int rng (32 * 1024)
          else 64 + Rng.int rng 1024
        in
        let obj = Heap.alloc heap ~size ~n_refs:2 ~cls:(i mod 3) in
        if Rng.int rng 3 > 0 then begin
          Heap.add_root heap obj;
          (match !prev with
          | Some p -> Heap.set_ref heap obj ~slot:0 (Some p)
          | None -> ());
          prev := Some obj
        end
      done;
      let c = Lisp2.collect (Lisp2.config ~threads:4 ()) heap in
      ( List.map Int64.bits_of_float
          [ c.Gc_stats.mark_ns; c.Gc_stats.adjust_ns; c.Gc_stats.compact_ns ],
        (c.Gc_stats.live_objects, c.Gc_stats.live_bytes),
        c ))

let run ?(quick = false) () =
  Report.section
    "Host parallelism - sharded sweep & GC fan-out, deterministic reduction \
     (extension)";
  let arena_pages = if quick then 4096 else 16384 in
  let machine, pt = fixture ~arena_pages ~seed:7 in
  let reference = Par_sweep.checksum_reference pt ~va:base ~pages:arena_pages in
  let r1 = Par_sweep.run machine pt ~va:base ~pages:arena_pages ~shards:1 in
  Table.print
    ~headers:
      [ "shards"; "leaves"; "mapped"; "checksum"; "walk"; "makespan"; "speedup" ]
    (List.map
       (fun shards ->
         let r = Par_sweep.run machine pt ~va:base ~pages:arena_pages ~shards in
         [
           string_of_int shards;
           string_of_int r.Par_sweep.leaves;
           string_of_int (r.Par_sweep.present + r.Par_sweep.swapped);
           (if r.Par_sweep.checksum = reference then "ok" else "MISMATCH");
           Report.ns r.Par_sweep.walk_ns;
           Report.ns r.Par_sweep.makespan_ns;
           Report.speedup (r1.Par_sweep.walk_ns /. r.Par_sweep.makespan_ns);
         ])
       [ 1; 2; 4; 8; 16 ]);
  (* Domain-invariance, demonstrated live: the same 8-shard sweep and the
     same GC cycle executed on 1 vs 4 real domains. *)
  let sweep_with domains =
    Domain_pool.with_pool ~domains (fun pool ->
        Par_sweep.run ~pool machine pt ~va:base ~pages:arena_pages ~shards:8)
  in
  let s1 = sweep_with 1 and s4 = sweep_with 4 in
  Report.kv "sweep, 1 vs 4 domains (8 shards)"
    (if
       s1 = s4
       && Int64.bits_of_float s1.Par_sweep.walk_ns
          = Int64.bits_of_float s4.Par_sweep.walk_ns
     then "bit-identical"
     else "DIVERGED");
  let g1_bits, g1_ints, c1 = gc_digest ~domains:1 in
  let g4_bits, g4_ints, _ = gc_digest ~domains:4 in
  Report.kv "LISP2 cycle, 1 vs 4 domains"
    (if g1_bits = g4_bits && g1_ints = g4_ints then "bit-identical"
     else "DIVERGED");
  Report.kv "mark" (Report.ns c1.Gc_stats.mark_ns);
  Report.kv "adjust" (Report.ns c1.Gc_stats.adjust_ns);
  Report.kv "sweep checksum" (Printf.sprintf "0x%016Lx" reference);
  Report.note
    "Shard counts are simulation semantics (the partition is fixed); host \
     domains only decide which hardware thread runs a shard, so clocks, \
     counters and checksums never move with DOMAINS.  Wall-clock scaling \
     lives in bench/host_gates.exe."
