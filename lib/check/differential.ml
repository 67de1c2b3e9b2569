open Svagc_vmem
module Rng = Svagc_util.Rng
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva

type case = {
  seed : int;
  arena_pages : int;
  requests : Swapva.request list;
}

(* 1 GiB: PMD-aligned, comfortably above any default heap placement. *)
let arena_base = 1 lsl 30

let page = Addr.page_size

(* Two disjoint page ranges of [pages] inside [0, arena_pages), built by
   construction (no rejection sampling, so generation is O(1) and
   deterministic). *)
let disjoint_pair rng ~arena_pages ~pages =
  let a = Rng.int rng (arena_pages - (2 * pages) + 1) in
  let b = a + pages + Rng.int rng (arena_pages - a - (2 * pages) + 1) in
  if Rng.bool rng then (a, b) else (b, a)

let gen_case ?(arena_pages = 1536) ?(max_requests = 10) ~seed () =
  if arena_pages < 128 then invalid_arg "Differential.gen_case: arena too small";
  let rng = Rng.create ~seed in
  let nreq = 1 + Rng.int rng max_requests in
  let requests =
    List.init nreq (fun _ ->
        let leaf_slots = arena_pages / 512 in
        if leaf_slots >= 2 && Rng.int rng 4 = 0 then begin
          (* Whole PMD-aligned 512-page runs: the only shape the leaf-swap
             path accelerates, so make sure schedules contain them. *)
          let a = Rng.int rng leaf_slots in
          let b = (a + 1 + Rng.int rng (leaf_slots - 1)) mod leaf_slots in
          {
            Swapva.src = arena_base + (a * 512 * page);
            dst = arena_base + (b * 512 * page);
            pages = 512;
          }
        end
        else begin
          let pages =
            if Rng.bool rng then 1 + Rng.int rng 16
            else 16 + Rng.int rng (min 300 ((arena_pages / 2) - 16))
          in
          let src_page, dst_page = disjoint_pair rng ~arena_pages ~pages in
          {
            Swapva.src = arena_base + (src_page * page);
            dst = arena_base + (dst_page * page);
            pages;
          }
        end)
  in
  { seed; arena_pages; requests }

type path = Per_page | Flat | Leaf

type replay = {
  cost : float;
  counters : (string * int) list;
  layout : (int * int) list;
}

let fresh_proc ~arena_pages =
  let phys_mib = max 64 (2 * arena_pages * page / (1024 * 1024)) in
  let machine = Machine.create ~ncores:4 ~phys_mib Cost_model.xeon_6130 in
  let proc = Process.create ~name:"differential" machine in
  Address_space.map_range (Process.aspace proc) ~va:arena_base
    ~pages:arena_pages;
  (machine, proc)

let layout_of proc =
  let pt = Address_space.page_table (Process.aspace proc) in
  let acc = ref [] in
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame -> acc := (vpn, frame) :: !acc);
  List.sort compare !acc

(* [leaf_runs] counts how many PMD-leaf slices the flat engine walked —
   pure bookkeeping of the fast path itself, explicitly outside the
   equivalence contract (the per-page reference never sets it). *)
let counters_of machine =
  List.map
    (fun (k, v) -> if k = "leaf_runs" then (k, 0) else (k, v))
    (Perf.to_assoc machine.Machine.perf)

let replay path case =
  let machine, proc = fresh_proc ~arena_pages:case.arena_pages in
  let engine req =
    match path with
    | Per_page -> Swapva.swap_disjoint_per_page proc ~pmd_caching:true req
    | Flat ->
      Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false req
    | Leaf ->
      Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true req
  in
  let cost =
    List.fold_left (fun acc req -> acc +. engine req) 0.0 case.requests
  in
  { cost; counters = counters_of machine; layout = layout_of proc }

let mk invariant fmt =
  Format.kasprintf (fun detail -> { Check.invariant; detail }) fmt

let first_counter_mismatch c1 c2 =
  List.find_opt (fun ((k1, v1), (_, v2)) -> ignore k1; v1 <> v2)
    (List.combine c1 c2)

let compare_case case =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let reference = replay Per_page case in
  let flat = replay Flat case in
  let leaf = replay Leaf case in
  let label = Printf.sprintf "case seed=%d (%d requests)" case.seed
      (List.length case.requests)
  in
  law (flat.cost = reference.cost) (fun () ->
      mk "differential-cost"
        "%s: flat-engine cost %.17g <> per-page reference %.17g" label
        flat.cost reference.cost);
  law (flat.layout = reference.layout) (fun () ->
      mk "differential-layout"
        "%s: flat-engine final mapping differs from the per-page reference"
        label);
  law (flat.counters = reference.counters) (fun () ->
      match first_counter_mismatch flat.counters reference.counters with
      | Some ((k, v1), (_, v2)) ->
        mk "differential-counters" "%s: %s = %d (flat) vs %d (per-page)" label
          k v1 v2
      | None -> mk "differential-counters" "%s: counter sets differ" label);
  law (leaf.layout = reference.layout) (fun () ->
      mk "differential-layout"
        "%s: pmd-leaf final mapping differs from the per-page reference" label);
  law (leaf.cost <= flat.cost) (fun () ->
      mk "differential-cost"
        "%s: pmd-leaf cost %.17g exceeds the flat cost %.17g" label leaf.cost
        flat.cost);
  (!items + List.length reference.layout, List.rev !findings)

(* --- rate-0 fault identity through the full syscall boundary --- *)

let zero_rate_spec =
  match Svagc_fault.Fault_spec.parse "pte:p=0,lock:p=0,ipi:p=0" with
  | Ok spec -> spec
  | Error msg -> failwith ("Differential.zero_rate_spec: " ^ msg)

type syscall_replay = {
  s_outcomes : (float * int * bool) list;  (** ns, completed, failed? *)
  s_counters : (string * int) list;
  s_layout : (int * int) list;
}

let syscall_replay ~with_zero_injector case =
  let machine, proc = fresh_proc ~arena_pages:case.arena_pages in
  if with_zero_injector then
    machine.Machine.fault <-
      Some (Svagc_fault.Injector.create zero_rate_spec ~seed:case.seed);
  (* Broadcast flushing exercises the IPI delivery path (where the ipi
     clause would fire); the aggregated call uses the SVAGC defaults. *)
  let separated = Swapva.swap_separated proc ~opts:Swapva.naive_opts case.requests in
  let aggregated =
    Swapva.swap_aggregated proc ~opts:Swapva.default_opts case.requests
  in
  let digest (o : Swapva.outcome) =
    (o.Swapva.ns, o.Swapva.completed, Option.is_some o.Swapva.failure)
  in
  {
    s_outcomes = [ digest separated; digest aggregated ];
    s_counters = counters_of machine;
    s_layout = layout_of proc;
  }

let zero_fault_identity case =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let plain = syscall_replay ~with_zero_injector:false case in
  let zeroed = syscall_replay ~with_zero_injector:true case in
  let label = Printf.sprintf "case seed=%d" case.seed in
  law (plain.s_outcomes = zeroed.s_outcomes) (fun () ->
      mk "fault-rate0" "%s: syscall outcomes differ under a rate-0 injector"
        label);
  law (plain.s_counters = zeroed.s_counters) (fun () ->
      match first_counter_mismatch plain.s_counters zeroed.s_counters with
      | Some ((k, v1), (_, v2)) ->
        mk "fault-rate0" "%s: %s = %d (no injector) vs %d (rate-0 injector)"
          label k v1 v2
      | None -> mk "fault-rate0" "%s: counters differ" label);
  law (plain.s_layout = zeroed.s_layout) (fun () ->
      mk "fault-rate0" "%s: final mapping differs under a rate-0 injector"
        label);
  (!items, List.rev !findings)

(* --- host-parallelism identity: the sharded sweep at 1 vs N domains --- *)

module Domain_pool = Svagc_par.Domain_pool
module Par_sweep = Svagc_par.Par_sweep

(* Every field of a sweep result with the floats bit-cast: the comparison
   below is bit-identity, not tolerance. *)
let sweep_digest (r : Par_sweep.result) =
  let shards = Array.to_list r.Par_sweep.shards in
  ( r.Par_sweep.leaves :: r.Par_sweep.present :: r.Par_sweep.swapped
    :: List.concat_map
         (fun s ->
           [
             s.Par_sweep.ss_shard;
             s.Par_sweep.ss_leaf_lo;
             s.Par_sweep.ss_leaf_hi;
             s.Par_sweep.ss_leaves;
             s.Par_sweep.ss_present;
             s.Par_sweep.ss_swapped;
           ])
         shards,
    r.Par_sweep.checksum
    :: Int64.bits_of_float r.Par_sweep.walk_ns
    :: Int64.bits_of_float r.Par_sweep.makespan_ns
    :: List.concat_map
         (fun s ->
           [ s.Par_sweep.ss_checksum; Int64.bits_of_float s.Par_sweep.ss_cost_ns ])
         shards )

let scrambled_arena ~arena_pages ~seed =
  let case = gen_case ~arena_pages ~seed () in
  let machine, proc = fresh_proc ~arena_pages in
  List.iter
    (fun req ->
      ignore
        (Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false req))
    case.requests;
  (machine, Address_space.page_table (Process.aspace proc))

(* One 8-shard sweep under whatever global pool is installed, over an
   8-leaf scrambled arena; returns the result and the sequential reference
   checksum. *)
let par_sweep ~seed () =
  let pages = 4096 in
  let machine, pt = scrambled_arena ~arena_pages:pages ~seed in
  ( Par_sweep.run machine pt ~va:arena_base ~pages ~shards:8,
    Par_sweep.checksum_reference pt ~va:arena_base ~pages )

let par_identity ?(domains = 4) ~seed () =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let base = Domain_pool.with_global ~domains:1 (par_sweep ~seed) in
  let par = Domain_pool.with_global ~domains (par_sweep ~seed) in
  let label = Printf.sprintf "par case seed=%d (1 vs %d domains)" seed domains in
  List.iter
    (fun (who, (sweep, reference)) ->
      let n, f = Check.domain_safety sweep in
      items := !items + n;
      findings := List.rev_append f !findings;
      law (sweep.Par_sweep.checksum = reference) (fun () ->
          mk "par-identity"
            "%s: %s sweep checksum %Ld <> sequential reference %Ld" label who
            sweep.Par_sweep.checksum reference))
    [ ("1-domain", base); (Printf.sprintf "%d-domain" domains, par) ];
  law (sweep_digest (fst base) = sweep_digest (fst par)) (fun () ->
      mk "par-identity" "%s: sharded sweep results are not bit-identical"
        label);
  (!items, List.rev !findings)

let arena_sizes = [| 384; 512; 1024; 1536; 2048 |]

let run_suite ?(cases = 40) ?(seed = 0xC0FFEE) () =
  let items = ref 0 and findings = ref [] in
  for i = 0 to cases - 1 do
    let arena_pages = arena_sizes.(i mod Array.length arena_sizes) in
    let case = gen_case ~arena_pages ~seed:(seed + i) () in
    let n1, f1 = compare_case case in
    let n2, f2 = zero_fault_identity case in
    items := !items + n1 + n2;
    findings := !findings @ f1 @ f2
  done;
  (!items, !findings)

(* Each replay spawns a fresh pool, so run a handful of seeds rather than
   one per case. *)
let par_suite ?(cases = 40) ?(seed = 0xC0FFEE) () =
  let items = ref 0 and findings = ref [] in
  for i = 0 to (cases / 16) + 1 do
    let n, f = par_identity ~seed:(seed + (7919 * i)) () in
    items := !items + n;
    findings := !findings @ f
  done;
  (!items, !findings)
