(* Extension: real host parallelism with deterministic reduction
   (DESIGN.md §13).

   Everything printed here is *simulated* and therefore byte-identical no
   matter how many host domains execute it — CI diffs this experiment's
   output under DOMAINS=1 and DOMAINS=4.  Host wall-clock scaling is timed
   by the par workload of bench/host_gates.exe (BENCH_host.json). *)

module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table
module Domain_pool = Svagc_par.Domain_pool
module Par_sweep = Svagc_par.Par_sweep
module Differential = Svagc_check.Differential

let base = Differential.arena_base

let run ?(quick = false) () =
  Report.section
    "Host parallelism - sharded sweep, deterministic reduction (extension)";
  let arena_pages = if quick then 4096 else 16384 in
  (* A page table scrambled by a deterministic swap schedule, so the sweep
     audits a non-trivial mapping. *)
  let machine, pt = Differential.scrambled_arena ~arena_pages ~seed:7 in
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
  (* Domain-invariance, demonstrated live: the same 8-shard sweep executed
     on 1 vs 4 real domains. *)
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
  Report.kv "sweep checksum" (Printf.sprintf "0x%016Lx" reference);
  Report.note
    "Shard counts are simulation semantics (the partition is fixed); host \
     domains only decide which hardware thread runs a shard, so clocks, \
     counters and checksums never move with DOMAINS.  Wall-clock scaling \
     lives in bench/host_gates.exe."
