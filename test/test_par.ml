(* Tests for the simulated work-stealing executor. *)

module Work_steal = Svagc_par.Work_steal

let qtest ?(count = 150) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let run ?(threads = 4) ?(steal_ns = 0.0) ?(barrier_ns = 0.0) costs =
  Work_steal.run ~threads ~steal_ns ~barrier_ns ~cost:(fun c -> c)
    ~execute:ignore (Array.of_list costs)

let test_empty () =
  let st = run [] in
  Alcotest.(check (float 1e-9)) "empty makespan" 0.0 st.Work_steal.makespan_ns;
  Alcotest.(check int) "no steals" 0 st.Work_steal.steals

let test_single_thread_is_sum () =
  let st = run ~threads:1 ~barrier_ns:5.0 [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "sum + barrier" 11.0 st.Work_steal.makespan_ns

let test_perfect_split () =
  let st = run ~threads:2 [ 10.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "parallel halves" 10.0 st.Work_steal.makespan_ns

let test_execute_each_once () =
  let seen = Hashtbl.create 16 in
  let items = Array.init 100 (fun i -> i) in
  let st =
    Work_steal.run ~threads:3 ~steal_ns:1.0 ~barrier_ns:0.0
      ~cost:(fun i -> float_of_int (i mod 7))
      ~execute:(fun i ->
        Hashtbl.replace seen i (1 + Option.value ~default:0 (Hashtbl.find_opt seen i)))
      items
  in
  Alcotest.(check int) "tasks" 100 st.Work_steal.tasks;
  Alcotest.(check int) "all executed" 100 (Hashtbl.length seen);
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "exactly once" 1 n) seen

let test_stealing_happens_on_imbalance () =
  (* With round-robin seeding, thread 0 gets all the heavy tasks unless
     the others steal. *)
  let costs = List.init 12 (fun i -> if i mod 3 = 0 then 100.0 else 1.0) in
  let st = run ~threads:3 ~steal_ns:1.0 costs in
  Alcotest.(check bool) "makespan beats serial heavy chain" true
    (st.Work_steal.makespan_ns < 400.0 -. 1e-9)

let test_more_threads_not_slower () =
  let costs = List.init 64 (fun i -> float_of_int (1 + (i mod 9))) in
  let t1 = (run ~threads:1 costs).Work_steal.makespan_ns in
  let t4 = (run ~threads:4 costs).Work_steal.makespan_ns in
  let t16 = (run ~threads:16 costs).Work_steal.makespan_ns in
  Alcotest.(check bool) "4 <= 1" true (t4 <= t1 +. 1e-9);
  Alcotest.(check bool) "16 <= 4 (free stealing)" true (t16 <= t4 +. 1e-9)

let test_deterministic () =
  let costs = List.init 50 (fun i -> float_of_int ((i * 37 mod 11) + 1)) in
  let a = run ~threads:5 ~steal_ns:2.0 costs in
  let b = run ~threads:5 ~steal_ns:2.0 costs in
  Alcotest.(check (float 1e-12)) "same makespan" a.Work_steal.makespan_ns
    b.Work_steal.makespan_ns;
  Alcotest.(check int) "same steals" a.Work_steal.steals b.Work_steal.steals

let test_invalid_threads () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Work_steal.run: threads must be positive") (fun () ->
      ignore (run ~threads:0 [ 1.0 ]))

let test_makespan_invalid_threads () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Work_steal.makespan: threads must be positive") (fun () ->
      ignore (Work_steal.makespan ~threads:0 ~steal_ns:0.0 ~barrier_ns:0.0 [| 1.0 |]))

let arb_costs =
  QCheck.(
    pair (int_range 1 8)
      (list_of_size Gen.(1 -- 60) (float_range 0.0 100.0)))

let prop_makespan_lower_bounds =
  qtest "makespan >= max(total/threads, max_task)" arb_costs
    (fun (threads, costs) ->
      let st = run ~threads costs in
      let total = List.fold_left ( +. ) 0.0 costs in
      let biggest = List.fold_left Float.max 0.0 costs in
      st.Work_steal.makespan_ns +. 1e-6 >= total /. float_of_int threads
      && st.Work_steal.makespan_ns +. 1e-6 >= biggest)

let prop_makespan_upper_bound =
  qtest "makespan <= total work + steal overhead" arb_costs
    (fun (threads, costs) ->
      let st =
        Work_steal.run ~threads ~steal_ns:3.0 ~barrier_ns:0.0 ~cost:(fun c -> c)
          ~execute:ignore (Array.of_list costs)
      in
      st.Work_steal.makespan_ns
      <= List.fold_left ( +. ) 0.0 costs
         +. (3.0 *. float_of_int st.Work_steal.steals)
         +. 1e-6)

let prop_total_work_preserved =
  qtest "total work = sum of costs" arb_costs
    (fun (threads, costs) ->
      let st = run ~threads costs in
      Float.abs (st.Work_steal.total_work_ns -. List.fold_left ( +. ) 0.0 costs)
      < 1e-6)

(* [makespan] is the allocation-free replay of [run]: the same schedule, so
   the same float bits.  Costs come from a few fixed values as well as a
   range, so zero-cost tasks and equal clocks (the tie-breaks) are common;
   n runs below the thread count too. *)
let prop_makespan_replays_run =
  let gen =
    QCheck.Gen.(
      let cost =
        frequency
          [ (2, return 0.0); (3, oneofl [ 1.0; 2.5; 7.0 ]); (3, float_range 0.0 50.0) ]
      in
      quad (int_range 1 16) (oneofl [ 0.0; 1.0; 3.5 ]) (oneofl [ 0.0; 2.0 ])
        (int_range 0 300 >>= fun n -> array_size (return n) cost))
  in
  let print (threads, steal_ns, barrier_ns, costs) =
    Printf.sprintf "threads=%d steal=%g barrier=%g costs=[%s]" threads steal_ns
      barrier_ns
      (String.concat "; " (Array.to_list (Array.map string_of_float costs)))
  in
  qtest ~count:400 "makespan is run's makespan, bit for bit" (QCheck.make ~print gen)
    (fun (threads, steal_ns, barrier_ns, costs) ->
      let oracle =
        (Work_steal.run ~threads ~steal_ns ~barrier_ns ~cost:Fun.id ~execute:ignore
           costs)
          .Work_steal.makespan_ns
      in
      Int64.equal
        (Int64.bits_of_float
           (Work_steal.makespan ~threads ~steal_ns ~barrier_ns costs))
        (Int64.bits_of_float oracle))

(* --- Deque --- *)

module Deque = Svagc_par.Deque

let test_deque_owner_lifo_thief_fifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Deque.length d);
  Alcotest.(check (option int)) "owner pops newest" (Some 4) (Deque.pop_back d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1)
    (Deque.steal_front d);
  Alcotest.(check (option int)) "next steal" (Some 2) (Deque.steal_front d);
  Alcotest.(check (option int)) "owner again" (Some 3) (Deque.pop_back d);
  Alcotest.(check bool) "drained" true (Deque.is_empty d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop_back d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal_front d)

let test_deque_reuse_after_drain () =
  let d = Deque.create () in
  (* Drain via steals (head index advances), then reuse: the head must
     have been reset so new pushes are visible. *)
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "steal 1" (Some 1) (Deque.steal_front d);
  Alcotest.(check (option int)) "steal 2" (Some 2) (Deque.steal_front d);
  Alcotest.(check (option int)) "steal 3" (Some 3) (Deque.steal_front d);
  Deque.push d 9;
  Alcotest.(check int) "length after reuse" 1 (Deque.length d);
  Alcotest.(check (option int)) "fresh element" (Some 9) (Deque.pop_back d)

let prop_deque_model =
  qtest ~count:300 "deque agrees with a list model"
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            incr counter;
            Deque.push d !counter;
            model := !model @ [ !counter ];
            true
          | 1 ->
            let expected =
              match List.rev !model with
              | [] -> None
              | x :: rest ->
                model := List.rev rest;
                Some x
            in
            Deque.pop_back d = expected
          | _ ->
            let expected =
              match !model with
              | [] -> None
              | x :: rest ->
                model := rest;
                Some x
            in
            Deque.steal_front d = expected)
        ops
      && Deque.length d = List.length !model)

(* --- Domain_pool / Reduce / Par_sweep: real host parallelism --- *)

module Domain_pool = Svagc_par.Domain_pool
module Reduce = Svagc_par.Reduce
module Par_sweep = Svagc_par.Par_sweep
module Machine = Svagc_vmem.Machine
module Perf = Svagc_vmem.Perf
module Process = Svagc_kernel.Process
module Differential = Svagc_check.Differential

let prop_slice_partitions =
  qtest ~count:200 "slice is a contiguous balanced partition"
    QCheck.(pair (int_range 0 500) (int_range 1 32))
    (fun (len, shards) ->
      let ranges = List.init shards (Reduce.slice ~len ~shards) in
      let rec contiguous prev = function
        | [] -> prev = len
        | (lo, hi) :: rest -> lo = prev && lo <= hi && contiguous hi rest
      in
      contiguous 0 ranges
      && List.for_all
           (fun (lo, hi) ->
             let sz = hi - lo in
             sz >= len / shards && sz <= (len / shards) + 1)
           ranges)

let test_pool_executes_once () =
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let hits = Array.make 64 0 in
          Domain_pool.run pool ~shards:64 (fun i -> hits.(i) <- hits.(i) + 1);
          Array.iteri
            (fun i n ->
              if n <> 1 then
                Alcotest.failf "%d domains: shard %d ran %d times" domains i n)
            hits))
    [ 1; 2; 4 ]

let test_pool_map_order () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let r = Domain_pool.map_shards pool ~shards:33 (fun i -> i * i) in
      Alcotest.(check int) "length" 33 (Array.length r);
      Array.iteri (fun i v -> Alcotest.(check int) "canonical order" (i * i) v) r)

exception Boom of int

let test_pool_exception_canonical () =
  (* Shards 3 and 7 both fail; the pool must re-raise shard 3's exception
     (the canonical lowest) no matter how many domains ran the batch. *)
  let attempt domains =
    try
      Domain_pool.with_pool ~domains (fun pool ->
          Domain_pool.run pool ~shards:16 (fun i ->
              if i = 3 || i = 7 then raise (Boom i)));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "1 domain" (Some 3) (attempt 1);
  Alcotest.(check (option int)) "4 domains" (Some 3) (attempt 4)

let test_pool_reentrant_inline () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      let hits = Array.make (4 * 8) 0 in
      Domain_pool.run pool ~shards:4 (fun i ->
          Domain_pool.run pool ~shards:8 (fun j ->
              hits.((i * 8) + j) <- hits.((i * 8) + j) + 1));
      Array.iteri
        (fun k n ->
          if n <> 1 then Alcotest.failf "nested shard %d ran %d times" k n)
        hits)

let test_reduce_concat_and_sums () =
  let segs = [| [| 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6 |] |] in
  Alcotest.(check (list int)) "concat in shard order" [ 1; 2; 3; 4; 5; 6 ]
    (Array.to_list (Reduce.concat segs));
  Alcotest.(check int) "sum_ints" 21
    (Reduce.sum_ints (Array.map (Array.fold_left ( + ) 0) segs));
  (* Left-to-right float summation: compare against an explicit fold. *)
  let floats = [| 0.1; 0.2; 0.3; 1e16; 1.0; -1e16 |] in
  Alcotest.(check bool) "sum_floats is the left fold, bit-exact" true
    (Int64.bits_of_float (Reduce.sum_floats floats)
    = Int64.bits_of_float (Array.fold_left ( +. ) 0.0 floats))

(* A machine whose page table holds the aftermath of a random (seeded)
   swap schedule — the state the sweep properties run against. *)
let sweep_fixture ~seed =
  let pages = 1536 in
  let machine, pt = Differential.scrambled_arena ~arena_pages:pages ~seed in
  (machine, pt, pages)

let prop_sweep_partition_invariant =
  qtest ~count:12 "sweep checksum & perf delta are partition-invariant"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let machine, pt, pages = sweep_fixture ~seed in
      let va = Differential.arena_base in
      let reference = Par_sweep.checksum_reference pt ~va ~pages in
      let observe shards =
        let before = Perf.copy machine.Machine.perf in
        let r = Par_sweep.run machine pt ~va ~pages ~shards in
        let delta =
          Perf.to_assoc (Perf.diff ~after:machine.Machine.perf ~before)
        in
        (r.Par_sweep.checksum, r.Par_sweep.leaves, r.Par_sweep.present,
         r.Par_sweep.swapped, delta)
      in
      let (cks1, l1, p1, s1, d1) = observe 1 in
      cks1 = reference
      && List.for_all
           (fun shards -> observe shards = (cks1, l1, p1, s1, d1))
           [ 2; 3; 5; 8; 16 ])

let test_sweep_domain_invariant () =
  (* Identical fixtures, identical shard count, different domain counts:
     every field — float costs included — must be bit-identical. *)
  let va = Differential.arena_base in
  let run_with domains =
    let machine, pt, pages = sweep_fixture ~seed:11 in
    let r =
      Domain_pool.with_pool ~domains (fun pool ->
          Par_sweep.run ~pool machine pt ~va ~pages ~shards:8)
    in
    (r, Perf.to_assoc machine.Machine.perf)
  in
  let r1, c1 = run_with 1 in
  let r4, c4 = run_with 4 in
  Alcotest.(check bool) "sweep results structurally equal" true (r1 = r4);
  Alcotest.(check bool) "walk_ns bit-identical" true
    (Int64.bits_of_float r1.Par_sweep.walk_ns
    = Int64.bits_of_float r4.Par_sweep.walk_ns);
  Alcotest.(check bool) "makespan_ns bit-identical" true
    (Int64.bits_of_float r1.Par_sweep.makespan_ns
    = Int64.bits_of_float r4.Par_sweep.makespan_ns);
  Alcotest.(check bool) "machine counters identical" true (c1 = c4)

let test_sweep_domain_safety_law () =
  let machine, pt, pages = sweep_fixture ~seed:5 in
  let r =
    Par_sweep.run machine pt ~va:Differential.arena_base ~pages ~shards:7
  in
  match Svagc_check.Check.domain_safety r with
  | _, [] -> ()
  | _, f :: _ ->
    Alcotest.failf "domain-safety finding: %a" Svagc_check.Check.pp_finding f

let () =
  Alcotest.run "svagc_par"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO / thief FIFO" `Quick
            test_deque_owner_lifo_thief_fifo;
          Alcotest.test_case "reuse after drain" `Quick
            test_deque_reuse_after_drain;
          prop_deque_model;
        ] );
      ( "work_steal",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single thread" `Quick test_single_thread_is_sum;
          Alcotest.test_case "perfect split" `Quick test_perfect_split;
          Alcotest.test_case "execute once" `Quick test_execute_each_once;
          Alcotest.test_case "steal on imbalance" `Quick test_stealing_happens_on_imbalance;
          Alcotest.test_case "threads monotone" `Quick test_more_threads_not_slower;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "invalid threads" `Quick test_invalid_threads;
          Alcotest.test_case "makespan invalid threads" `Quick
            test_makespan_invalid_threads;
          prop_makespan_lower_bounds;
          prop_makespan_upper_bound;
          prop_total_work_preserved;
          prop_makespan_replays_run;
        ] );
      ( "domain_pool",
        [
          prop_slice_partitions;
          Alcotest.test_case "execute once, any domains" `Quick
            test_pool_executes_once;
          Alcotest.test_case "map in canonical order" `Quick
            test_pool_map_order;
          Alcotest.test_case "canonical exception" `Quick
            test_pool_exception_canonical;
          Alcotest.test_case "re-entrant run degrades inline" `Quick
            test_pool_reentrant_inline;
          Alcotest.test_case "reduce combinators" `Quick
            test_reduce_concat_and_sums;
        ] );
      ( "par_sweep",
        [
          prop_sweep_partition_invariant;
          Alcotest.test_case "domain-invariant to the bit" `Quick
            test_sweep_domain_invariant;
          Alcotest.test_case "domain-safety law" `Quick
            test_sweep_domain_safety_law;
        ] );
    ]
