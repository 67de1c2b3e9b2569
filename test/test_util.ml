(* Unit and property tests for svagc_util: Vec, Rng, Dist, Histogram,
   Num_util. *)

open Svagc_util

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 0;
  Alcotest.(check int) "set 7" 0 (Vec.get v 7)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v);
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Vec.push v 4;
  Alcotest.(check int) "pop_last" 4 (Vec.pop_last v);
  Alcotest.check_raises "pop_last empty"
    (Invalid_argument "Vec.pop_last: empty vector") (fun () ->
      ignore (Vec.pop_last v))

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "for_all" true (Vec.for_all (fun x -> x > 0) v);
  Alcotest.(check (option int)) "find" (Some 2) (Vec.find_opt (fun x -> x mod 2 = 0) v);
  Alcotest.(check (list int)) "map" [ 2; 4; 6; 8 ] (Vec.to_list (Vec.map (fun x -> 2 * x) v));
  Alcotest.(check (list int)) "filter" [ 2; 4 ]
    (Vec.to_list (Vec.filter (fun x -> x mod 2 = 0) v));
  Alcotest.(check (option int)) "last" (Some 4) (Vec.last v)

let test_vec_clear_reuse () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check (list int)) "reusable" [ 9 ] (Vec.to_list v)

let prop_vec_roundtrip =
  qtest "vec: of_list |> to_list = id"
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_vec_sort =
  qtest "vec: sort agrees with List.sort"
    QCheck.(list int)
    (fun l ->
      let v = Vec.of_list l in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare l)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prop_rng_int_bounds =
  qtest "rng: int in [0, bound)"
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  qtest "rng: int_in inclusive range"
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let rng = Rng.create ~seed in
      let hi = lo + span in
      let v = Rng.int_in rng ~lo ~hi in
      v >= lo && v <= hi)

let prop_rng_float_unit =
  qtest "rng: float in [0,1)"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:9 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

(* --- Pinned draw streams ---

   The expected values below were produced by the SplitMix64 and [Dist]
   code before their state and loops were made allocation-free: the first
   three draws literally, all 1,000 through an FNV-style fold.  Any change
   to the stream (arithmetic, order of draws, summation order) moves them. *)

let fold_stream n draw =
  let first = ref [] and h = ref 0L in
  for i = 1 to n do
    let v = draw () in
    if i <= 3 then first := v :: !first;
    h := Int64.add (Int64.mul !h 1099511628211L) v
  done;
  (List.rev !first, !h)

let rng_of_label = function
  | "create" -> fun () -> Rng.create ~seed:42
  | "split" -> fun () -> Rng.split (Rng.create ~seed:42)
  | "parent-after-split" ->
    fun () ->
      let r = Rng.create ~seed:42 in
      ignore (Rng.split r);
      r
  | l -> invalid_arg l

let draw_of_kind r = function
  | "int64" -> fun () -> Rng.int64 r
  | "int 1000" -> fun () -> Int64.of_int (Rng.int r 1000)
  | "int max" -> fun () -> Int64.of_int (Rng.int r max_int)
  | "float" -> fun () -> Int64.bits_of_float (Rng.float r)
  | k -> invalid_arg k

let pinned_rng_streams =
  [
    ( "create",
      "int64",
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
      -1507898233693108119L );
    ("create", "int 1000", [ 853L; 72L; 964L ], -309360205685890053L);
    ( "create",
      "int max",
      [ 3419864383188818853L; 737456523031723072L; 1284820937115690964L ],
      2500200526870419203L );
    ( "create",
      "float",
      [ 4604854642168692077L; 4594929399376720760L; 4598690451703514086L ],
      -7304917322596866282L );
    ( "split",
      "int64",
      [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L ],
      -1021531738302718218L );
    ("split", "int 1000", [ 417L; 829L; 700L ], 6069624050711404511L);
    ( "split",
      "int max",
      [ 1583154557381516417L; 4407603814059511829L; 2242891356538814700L ],
      3229738719261570711L );
    ( "split",
      "float",
      [ 4599855817407677468L; 4606783820744611400L; 4602432914279385664L ],
      -2379062244334537063L );
    ( "parent-after-split",
      "int64",
      [ 2949826092126892291L; 5139283748462763858L; 6349198060258255764L ],
      -3771617631679908252L );
    ( "parent-after-split",
      "int 1000",
      [ 72L; 964L; 941L ],
      8772912307029380687L );
    ( "parent-after-split",
      "int max",
      [ 737456523031723072L; 1284820937115690964L; 1587299515064563941L ],
      -3371587861323950209L );
    ( "parent-after-split",
      "float",
      [ 4594929399376720760L; 4598690451703514086L; 4599872008648626872L ],
      6349154391873876033L );
  ]

let test_rng_streams_pinned () =
  List.iter
    (fun (label, kind, first, h) ->
      let r = rng_of_label label () in
      let first', h' = fold_stream 1000 (draw_of_kind r kind) in
      let name = label ^ " " ^ kind in
      Alcotest.(check (list int64)) (name ^ ": first draws") first first';
      Alcotest.(check int64) (name ^ ": 1000 draws") h h')
    pinned_rng_streams

let test_rng_int_allocates_nothing () =
  let r = Rng.create ~seed:3 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Rng.int r 1000))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10k draws" words) true
    (words < 100.0)

let pinned_dists =
  [
    ("fixed", Dist.Fixed 48);
    ("uniform", Dist.Uniform (16, 4096));
    ("lognormal", Dist.Lognormal { mu = 5.0; sigma = 1.5; min = 16; max = 1_000_000 });
    ("lognormal_mean", Dist.lognormal_mean ~mean:200.0 ~sigma:1.0 ~min:16 ~max:100_000);
    ("choice", Dist.Choice [| (0.5, 32); (0.25, 64); (0.25, 40960) |]);
    ("choice zero mid", Dist.Choice [| (0.7, 32); (0.0, 64); (0.3, 4096) |]);
    ("choice zero first", Dist.Choice [| (0.0, 1); (2.0, 2); (1.0, 3) |]);
    ("choice zero last", Dist.Choice [| (1.0, 1); (3.0, 2); (0.0, 3) |]);
  ]

let pinned_dist_streams =
  [
    ("fixed", [ 48L; 48L; 48L ], -4564571537346281728L);
    ("uniform", [ 3808L; 1457L; 1594L ], 8792638806191058401L);
    ("lognormal", [ 1149L; 81L; 149L ], 531487725945499278L);
    ("lognormal_mean", [ 474L; 81L; 121L ], -3142611934318703816L);
    ("choice", [ 32L; 32L; 40960L ], 3450718885989176096L);
    ("choice zero mid", [ 32L; 32L; 4096L ], -2751149790975823680L);
    ("choice zero first", [ 2L; 2L; 3L ], -5130444157444928045L);
    ("choice zero last", [ 2L; 1L; 2L ], 6967963637149562508L);
  ]

let test_dist_streams_pinned () =
  List.iter
    (fun (name, first, h) ->
      let d = List.assoc name pinned_dists in
      let r = Rng.create ~seed:7 in
      let first', h' =
        fold_stream 1000 (fun () -> Int64.of_int (Dist.sample r d))
      in
      Alcotest.(check (list int64)) (name ^ ": first samples") first first';
      Alcotest.(check int64) (name ^ ": 1000 samples") h h')
    pinned_dist_streams

(* --- Dist --- *)

let prop_dist_uniform_range =
  qtest "dist: uniform sample in range"
    QCheck.(pair small_int (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let rng = Rng.create ~seed in
      let v = Dist.sample rng (Dist.Uniform (lo, hi)) in
      v >= lo && v <= hi)

let prop_dist_lognormal_clamped =
  qtest "dist: lognormal clamped"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let d = Dist.lognormal_mean ~mean:50_000.0 ~sigma:1.0 ~min:1024 ~max:100_000 in
      let v = Dist.sample rng d in
      v >= 1024 && v <= 100_000)

let test_dist_fixed () =
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "fixed" 77 (Dist.sample rng (Dist.Fixed 77));
  Alcotest.(check (float 1e-9)) "mean" 77.0 (Dist.mean (Dist.Fixed 77))

let test_dist_choice_members () =
  let rng = Rng.create ~seed:3 in
  let d = Dist.Choice [| (1.0, 10); (2.0, 20); (3.0, 30) |] in
  for _ = 1 to 200 do
    let v = Dist.sample rng d in
    Alcotest.(check bool) "member" true (List.mem v [ 10; 20; 30 ])
  done

let test_dist_choice_mean () =
  let d = Dist.Choice [| (1.0, 10); (1.0, 30) |] in
  Alcotest.(check (float 1e-9)) "weighted mean" 20.0 (Dist.mean d)

let test_dist_choice_weights_respected () =
  (* With weights 9:1 the heavy value must dominate. *)
  let rng = Rng.create ~seed:5 in
  let d = Dist.Choice [| (9.0, 1); (1.0, 2) |] in
  let ones = ref 0 in
  for _ = 1 to 1000 do
    if Dist.sample rng d = 1 then incr ones
  done;
  Alcotest.(check bool) "heavy value dominates" true (!ones > 800)

let prop_dist_zipf_range =
  qtest "dist: zipf rank within [0, n)"
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let r = Dist.zipf rng ~n ~s:0.9 in
      r >= 0 && r < n)

let test_dist_zipf_skew () =
  let rng = Rng.create ~seed:4 in
  let hits = Array.make 100 0 in
  for _ = 1 to 5000 do
    let r = Dist.zipf rng ~n:100 ~s:1.1 in
    hits.(r) <- hits.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 is the most popular" true
    (hits.(0) > hits.(50) && hits.(0) > 5000 / 20)

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Histogram.max h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Histogram.min h);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Histogram.percentile h 100.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "percentile empty" 0.0 (Histogram.percentile h 99.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 3.0;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2.0 (Histogram.mean m)

let prop_histogram_mean_bounds =
  qtest "histogram: min <= mean <= max"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      Histogram.min h <= Histogram.mean h +. 1e-9
      && Histogram.mean h <= Histogram.max h +. 1e-9)

let test_histogram_quantile_boundaries () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 500.0 (Histogram.p50 h);
  Alcotest.(check (float 0.0)) "p99" 990.0 (Histogram.p99 h);
  (* The regression this pins down: 0.999 *. 1000. is 999.0000000000001
     in floats, so an unguarded ceil lands on rank 1000 and reports the
     maximum instead of the 999th sample. *)
  Alcotest.(check (float 0.0)) "p999 boundary" 999.0 (Histogram.p999 h);
  Alcotest.(check (float 0.0)) "q=0 clamps to min" 1.0
    (Histogram.quantile h 0.0);
  Alcotest.(check (float 0.0)) "q=1 is max" 1000.0 (Histogram.quantile h 1.0);
  Alcotest.(check (float 0.0)) "percentile alias" 999.0
    (Histogram.percentile h 99.9)

(* Exact-integer-arithmetic nearest-rank reference: 1-indexed rank
   [ceil (num*n/den)], clamped into the sample range. *)
let prop_histogram_quantile_reference =
  qtest "histogram: quantile = sorted-array nearest rank"
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      List.for_all
        (fun (num, den) ->
          let rank = ((num * n) + den - 1) / den in
          let expect = sorted.(max 0 (rank - 1)) in
          Histogram.quantile h (float_of_int num /. float_of_int den) = expect)
        [ (1, 2); (99, 100); (999, 1000); (1, 1) ])

(* --- Num_util --- *)

let test_gcd () =
  Alcotest.(check int) "gcd 12 18" 6 (Num_util.gcd 12 18);
  Alcotest.(check int) "gcd 0 n" 7 (Num_util.gcd 0 7);
  Alcotest.(check int) "gcd n 0" 7 (Num_util.gcd 7 0);
  Alcotest.(check int) "coprime" 1 (Num_util.gcd 17 4)

let prop_gcd_divides =
  qtest "gcd divides both arguments"
    QCheck.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (a, b) ->
      let g = Num_util.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let test_ceil_div () =
  Alcotest.(check int) "exact" 3 (Num_util.ceil_div 12 4);
  Alcotest.(check int) "round up" 4 (Num_util.ceil_div 13 4);
  Alcotest.(check int) "zero" 0 (Num_util.ceil_div 0 4)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Num_util.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Num_util.geomean []);
  Alcotest.(check (float 1e-9)) "ignores nonpositive" 3.0
    (Num_util.geomean [ 3.0; 0.0; -5.0 ])

let test_pct_speedup () =
  Alcotest.(check (float 1e-9)) "pct" 50.0 (Num_util.pct_change ~baseline:2.0 ~value:3.0);
  Alcotest.(check (float 1e-9)) "speedup" 4.0 (Num_util.speedup ~baseline:8.0 ~value:2.0)

let () =
  Alcotest.run "svagc_util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "clear/reuse" `Quick test_vec_clear_reuse;
          prop_vec_roundtrip;
          prop_vec_sort;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pinned streams" `Quick test_rng_streams_pinned;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
          prop_rng_int_bounds;
          prop_rng_int_in;
          prop_rng_float_unit;
        ] );
      ( "dist",
        [
          Alcotest.test_case "fixed" `Quick test_dist_fixed;
          Alcotest.test_case "choice members" `Quick test_dist_choice_members;
          Alcotest.test_case "choice mean" `Quick test_dist_choice_mean;
          Alcotest.test_case "choice weights" `Quick test_dist_choice_weights_respected;
          Alcotest.test_case "zipf skew" `Quick test_dist_zipf_skew;
          Alcotest.test_case "pinned samples" `Quick test_dist_streams_pinned;
          prop_dist_uniform_range;
          prop_dist_lognormal_clamped;
          prop_dist_zipf_range;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "quantile boundaries" `Quick
            test_histogram_quantile_boundaries;
          prop_histogram_mean_bounds;
          prop_histogram_quantile_reference;
        ] );
      ( "num_util",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "pct/speedup" `Quick test_pct_speedup;
          prop_gcd_divides;
        ] );
    ]
