(* Host-time gates for the simulator itself.  Every run times two
   micro-workloads on one wall clock and checks each gate as a ratio
   within the run, so host speed cancels out:

   - swap: the flat SwapVA engine vs the per-page reference (and
     frame-to-frame memmove up to [memmove_max_pages]).  Gate: flat >= 5x
     at 512k pages.  The two engines must charge bit-identical simulated
     cost at every size.
   - par: the 64-shard page-table sweep on 1 / 2 / 4 real domains.  Gate:
     >= 2x at 4 domains, on hosts with >= 4 cores.  Every domain count
     must return the same result, whose checksum must match
     [checksum_reference].

   - shootdown: [Machine.flush_asid_everywhere] on a 32-core machine
     whose TLBs are all empty, as every SwapVA call's final flush finds
     them outside Table III.  Gate: 0 minor words over 10k calls.
   - copy: [Address_space.copy] of a whole page from a never-written
     page, of a whole dense page onto a dense page, and of 48 bytes
     between dense pages.  Gate: the two whole-page shapes allocate 0
     minor words over 10k calls each.
   - alloc: a SwapVA request inside one leaf, by the flat engine and by
     the per-page reference.  Gate: each engine allocates the same minor
     words over 10k calls at 1 page as at 64 pages — nothing per page.
   - collect: one LISP2 collection ([Lisp2.collect]) of a heap of 1k and
     of 16k objects, half of them garbage, whose object vector is out of
     address order.  Gate: the 16k heap's collection allocates no more
     minor words than the 1k heap's — nothing per object or reference.
   - llc: the default 8 MiB LLC ([Cache_sim]) streaming pages through a
     region 8x its size, and touching lines of a hot set half its size.
     Gate: 1M accesses after warm-up allocate 0 minor words, each way.

   The speed gates arm on full runs only; the identity checks and the
   allocation gates always.
   Time is bechamel's monotonic wall clock: CPU time sums across domains
   and would hide any parallel speedup.

   `dune exec bench/host_gates.exe` writes BENCH_host.json; `--quick`
   trims the sizes for CI smoke runs.  Exits 1 when an armed gate
   fails. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Domain_pool = Svagc_par.Domain_pool
module Par_sweep = Svagc_par.Par_sweep
module Json = Svagc_trace.Json
module Heap = Svagc_heap.Heap
module Vec = Svagc_util.Vec
module Lisp2 = Svagc_gc.Lisp2

let base = 1 lsl 32
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [sample n] runs [n] repetitions and returns the seconds its timed part
   took.  Grow [n] until a sample dwarfs the clock's granularity, then
   keep the best per-repetition time of a few more samples: the fixtures
   keep hundreds of MB live, so any one sample can eat a major-GC slice. *)
let best_of sample =
  Gc.full_major ();
  let rec calibrate n =
    let dt = sample n in
    if dt >= 0.1 || n >= 1_000_000 then (n, dt) else calibrate (n * 4)
  in
  let n, first = calibrate 1 in
  let per dt = dt /. float_of_int n in
  let best = ref (per first) in
  for _ = 1 to (if first >= 1.0 then 1 else 4) do
    best := Float.min !best (per (sample n))
  done;
  !best

(* Every operation timed this way is its own inverse or idempotent
   enough to repeat. *)
let per_op f =
  best_of (fun n ->
      let t0 = now_s () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done;
      now_s () -. t0)

let ns s = Json.Float (s *. 1e9)

type gate = { name : string; value : float; bound : float; armed : bool }

let passed g = g.value >= g.bound

(* An identity check as a gate: 1 when it holds, always armed. *)
let identity name ok =
  { name; value = (if ok then 1.0 else 0.0); bound = 1.0; armed = true }

let mapped_proc ~phys_mib ~pages =
  let machine = Machine.create ~ncores:4 ~phys_mib Cost_model.xeon_6130 in
  let proc = Process.create machine in
  Address_space.map_range (Process.aspace proc) ~va:base ~pages;
  (machine, proc)

(* --- swap --- *)

let memmove_max_pages = 65536

let swap_size ~pages =
  let _, proc =
    mapped_proc ~phys_mib:((2 * pages / 256) + 64) ~pages:(2 * pages)
  in
  let len = pages * Addr.page_size in
  let req = { Swapva.src = base; dst = base + len; pages } in
  let per_page_sim = ref 0.0 and flat_sim = ref 0.0 in
  let per_page =
    per_op (fun () ->
        per_page_sim :=
          Swapva.swap_disjoint_per_page proc ~pmd_caching:true req)
  in
  let flat =
    per_op (fun () ->
        flat_sim :=
          Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false req)
  in
  let memmove =
    if pages > memmove_max_pages then []
    else
      let aspace = Process.aspace proc in
      let move () = Memmove.move ~streams:1 aspace ~src:base ~dst:(base + len) ~len in
      [ ("memmove_ns", ns (per_op move)) ]
  in
  let row =
    Json.Obj
      ([
         ("pages", Json.Int pages);
         ("per_page_ns", ns per_page);
         ("flat_ns", ns flat);
         ("simulated_ns", Json.Float !flat_sim);
       ]
      @ memmove)
  in
  ( row,
    identity
      (Printf.sprintf "swap %d pages: flat simulated cost = per-page" pages)
      (!per_page_sim = !flat_sim),
    per_page /. flat )

(* --- par --- *)

let par_size ~pages =
  let machine, proc = mapped_proc ~phys_mib:((pages / 256) + 64) ~pages in
  let pt = Address_space.page_table (Process.aspace proc) in
  let sweep pool = Par_sweep.run ~pool machine pt ~va:base ~pages ~shards:64 in
  let runs =
    List.map
      (fun domains ->
        Domain_pool.with_pool ~domains (fun pool ->
            let r = sweep pool in
            (domains, per_op (fun () -> sweep pool), r)))
      [ 1; 2; 4 ]
  in
  let _, t1, r1 = List.hd runs and _, t4, _ = List.nth runs 2 in
  let row =
    Json.Obj
      [
        ("pages", Json.Int pages);
        ( "checksum",
          Json.Str (Printf.sprintf "0x%016Lx" r1.Par_sweep.checksum) );
        ( "domains",
          Json.List
            (List.map
               (fun (d, t, _) ->
                 Json.Obj [ ("domains", Json.Int d); ("sweep_ns", ns t) ])
               runs) );
      ]
  in
  let same = List.for_all (fun (_, _, r) -> r = r1) runs in
  let reference = Par_sweep.checksum_reference pt ~va:base ~pages in
  ( row,
    identity
      (Printf.sprintf
         "par %d pages: same result on 1/2/4 domains, checksum = reference"
         pages)
      (same && r1.Par_sweep.checksum = reference),
    t1 /. t4 )

(* --- shootdown --- *)

let shootdown_calls = 10_000

let shootdown () =
  let machine = Machine.create ~ncores:32 ~phys_mib:1 Cost_model.xeon_6130 in
  let flush () = Machine.flush_asid_everywhere machine ~asid:1 in
  let before = Gc.minor_words () in
  for _ = 1 to shootdown_calls do
    flush ()
  done;
  let words = Gc.minor_words () -. before in
  let row =
    Json.Obj
      [
        ("cores", Json.Int machine.Machine.ncores);
        ("calls", Json.Int shootdown_calls);
        ("minor_words", Json.Float words);
        ("flush_ns", ns (per_op flush));
      ]
  in
  ( row,
    identity
      (Printf.sprintf
         "shootdown: flush asid everywhere on 32 empty TLBs allocates 0 \
          words over %d calls"
         shootdown_calls)
      (words = 0.0) )

(* --- copy --- *)

let copy_calls = 10_000

(* Page 0 is never written; pages 1-3 are dense. *)
let copy () =
  let _, proc = mapped_proc ~phys_mib:1 ~pages:4 in
  let aspace = Process.aspace proc in
  let page i = base + (i * Addr.page_size) in
  Address_space.fill aspace ~va:(page 1) ~len:(3 * Addr.page_size) 'x';
  let shapes =
    [
      ("zero_page", true, fun () ->
          Address_space.copy aspace ~src:(page 0) ~dst:(page 1) ~len:Addr.page_size);
      ("dense_page", true, fun () ->
          Address_space.copy aspace ~src:(page 2) ~dst:(page 3) ~len:Addr.page_size);
      ("dense_48_bytes", false, fun () ->
          Address_space.copy aspace ~src:(page 2 + 1000) ~dst:(page 3 + 2000) ~len:48);
    ]
  in
  let rows =
    List.map
      (fun (shape, gated, f) ->
        f ();
        let before = Gc.minor_words () in
        for _ = 1 to copy_calls do
          f ()
        done;
        let words = Gc.minor_words () -. before in
        (shape, gated, words, per_op f))
      shapes
  in
  let row =
    Json.List
      (List.map
         (fun (shape, _, words, t) ->
           Json.Obj
             [
               ("shape", Json.Str shape);
               ("calls", Json.Int copy_calls);
               ("minor_words", Json.Float words);
               ("ns_per_page", ns t);
             ])
         rows)
  in
  ( row,
    identity
      (Printf.sprintf
         "copy: whole-page copies from a zero page and dense onto dense \
          allocate 0 words over %d calls each"
         copy_calls)
      (List.for_all (fun (_, gated, words, _) -> (not gated) || words = 0.0) rows) )

(* --- alloc --- *)

let alloc_calls = 10_000

(* Minor words of [alloc_calls] swaps of 1 and of 64 pages inside the leaf
   at [base], by each engine.  A swap is its own inverse, so every call
   sees the same table. *)
let alloc () =
  let _, proc = mapped_proc ~phys_mib:1 ~pages:128 in
  let words (engine, swap) pages =
    let req = { Swapva.src = base; dst = base + (64 * Addr.page_size); pages } in
    ignore (swap req);
    let before = Gc.minor_words () in
    for _ = 1 to alloc_calls do
      ignore (Sys.opaque_identity (swap req))
    done;
    (engine, pages, Gc.minor_words () -. before)
  in
  let rows =
    List.concat_map
      (fun e -> [ words e 1; words e 64 ])
      [
        ("flat", Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false);
        ("per_page", Swapva.swap_disjoint_per_page proc ~pmd_caching:true);
      ]
  in
  let row (engine, pages, words) =
    Json.Obj
      [
        ("engine", Json.Str engine);
        ("pages", Json.Int pages);
        ("calls", Json.Int alloc_calls);
        ("minor_words", Json.Float words);
      ]
  in
  let same_words (e, _, w) = List.for_all (fun (e', _, w') -> e <> e' || w = w') rows in
  ( Json.List (List.map row rows),
    identity
      (Printf.sprintf
         "alloc: a one-leaf swap allocates the same words at 1 and 64 pages \
          over %d calls, flat and per-page"
         alloc_calls)
      (List.for_all same_words rows) )

(* --- collect --- *)

let collect_sizes = [ 1_000; 16_000 ]

(* [n] objects of 64 to 1,023 bytes, each of every other one rooted and
   linked to the root before it, the rest garbage; the object vector is
   reversed, so the gather must sort.  Minor words of one collection
   (memmove mover) and its host time. *)
let collect_words n =
  let machine = Machine.create ~ncores:4 ~phys_mib:64 Cost_model.xeon_6130 in
  let heap = Heap.create (Process.create machine) ~size_bytes:(n * 1024) () in
  let prev = ref None in
  for i = 0 to n - 1 do
    let o = Heap.alloc heap ~size:(64 + (i * 97 mod 960)) ~n_refs:1 ~cls:0 in
    if i mod 2 = 0 then begin
      Heap.add_root heap o;
      Heap.set_ref heap o ~slot:0 !prev;
      prev := Some o
    end
  done;
  let objs = Heap.objects heap in
  for i = 0 to (n / 2) - 1 do
    let a = Vec.get objs i in
    Vec.set objs i (Vec.get objs (n - 1 - i));
    Vec.set objs (n - 1 - i) a
  done;
  let cfg = Lisp2.config () in
  let before = Gc.minor_words () in
  let t0 = now_s () in
  ignore (Sys.opaque_identity (Lisp2.collect cfg heap));
  let dt = now_s () -. t0 in
  (n, Gc.minor_words () -. before, dt)

let collect () =
  let rows = List.map collect_words collect_sizes in
  let row (n, words, dt) =
    Json.Obj
      [
        ("objects", Json.Int n);
        ("minor_words", Json.Float words);
        ("collect_ns", ns dt);
      ]
  in
  let words = List.map (fun (_, w, _) -> w) rows in
  ( Json.List (List.map row rows),
    identity
      (Printf.sprintf
         "collect: one LISP2 collection allocates no more words at %d objects \
          than at %d"
         (List.nth collect_sizes 1) (List.hd collect_sizes))
      (List.nth words 1 <= List.hd words) )

(* --- llc --- *)

let llc_accesses = 1_000_000

(* Whole pages streamed through 64 MiB, as Table III's byte copies
   stream objects (every line misses), and single lines drawn from a
   4 MiB hot set (most hit).  Minor words of [llc_accesses] accesses
   after as many for warm-up, and ns per access. *)
let llc () =
  let cache = Cache_sim.create () and page = ref 0 and x = ref 99 in
  let stream () =
    Cache_sim.access_range cache ~addr:(!page * Addr.page_size) ~len:Addr.page_size;
    page := (!page + 1) land 16383
  and hot () =
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    Cache_sim.access cache ~addr:((!x lsl 4) land ((4 lsl 20) - 1))
  in
  let pattern (name, lines, f) =
    let run () = for _ = 1 to llc_accesses / lines do f () done in
    run ();
    let before = Gc.minor_words () in
    run ();
    let words = Gc.minor_words () -. before in
    ( words,
      Json.Obj
        [
          ("pattern", Json.Str name);
          ("accesses", Json.Int llc_accesses);
          ("minor_words", Json.Float words);
          ("ns_per_access", ns (per_op f /. float_of_int lines));
        ] )
  in
  let rows = List.map pattern [ ("stream", Addr.page_size / 64, stream); ("hot", 1, hot) ] in
  ( Json.List (List.map snd rows),
    identity
      (Printf.sprintf
         "llc: %d accesses after warm-up allocate 0 words, streaming and hot"
         llc_accesses)
      (List.for_all (fun (words, _) -> words = 0.0) rows) )

(* --- driver --- *)

let run quick output =
  let host_cores = Domain.recommended_domain_count () in
  let last l = List.nth l (List.length l - 1) in
  let speed name ~armed (_, _, value) bound = { name; value; bound; armed } in
  let swap =
    List.map (fun pages -> swap_size ~pages)
      (if quick then [ 1024; 16384 ] else [ 1024; 65536; 524288 ])
  in
  let par =
    List.map (fun pages -> par_size ~pages)
      (if quick then [ 16384 ] else [ 65536; 524288 ])
  in
  let shootdown_row, shootdown_gate = shootdown () in
  let copy_row, copy_gate = copy () in
  let alloc_row, alloc_gate = alloc () in
  let collect_row, collect_gate = collect () in
  let llc_row, llc_gate = llc () in
  let full = not quick in
  let checks =
    List.map (fun (_, c, _) -> c) (swap @ par)
    @ [ shootdown_gate; copy_gate; alloc_gate; collect_gate; llc_gate ]
  in
  let gates =
    checks
    @ [
        speed "swap: flat vs per-page at the largest size" ~armed:full
          (last swap) 5.0;
        speed "par: 4 domains vs 1 at the largest size"
          ~armed:(full && host_cores >= 4) (last par) 2.0;
      ]
  in
  let rows l = Json.List (List.map (fun (r, _, _) -> r) l) in
  let gate_json g =
    Json.Obj
      [
        ("name", Json.Str g.name);
        ("value", Json.Float g.value);
        ("bound", Json.Float g.bound);
        ("armed", Json.Bool g.armed);
        ("passed", Json.Bool (passed g));
      ]
  in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.Str "host_gates");
        ("clock", Json.Str "bechamel.monotonic_clock");
        ("host_cores", Json.Int host_cores);
        ("quick", Json.Bool quick);
        ("swap", rows swap);
        ("par", rows par);
        ("shootdown", shootdown_row);
        ("copy", copy_row);
        ("alloc", alloc_row);
        ("collect", collect_row);
        ("llc", llc_row);
        ("gates", Json.List (List.map gate_json gates));
      ]
  in
  let oc = open_out output in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" output;
  List.iter
    (fun g ->
      Printf.printf "%-4s %s: %.2f (bound %.2f)\n"
        (if not g.armed then "off" else if passed g then "ok" else "FAIL")
        g.name g.value g.bound)
    gates;
  if List.exists (fun g -> g.armed && not (passed g)) gates then 1 else 0

let () =
  let open Cmdliner in
  let quick =
    Arg.(
      value & flag & info [ "quick" ] ~doc:"Trim the sizes; speed gates off.")
  in
  let output =
    Arg.(
      value
      & opt string "BENCH_host.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv).")
  in
  let doc = "Time the simulator's host hot paths and check their gates." in
  let term = Term.(const run $ quick $ output) in
  exit (Cmd.eval' (Cmd.v (Cmd.info "host_gates" ~doc) term))
