module Machine = Svagc_vmem.Machine
module Page_table = Svagc_vmem.Page_table
module Pte = Svagc_vmem.Pte
module Addr = Svagc_vmem.Addr
module Cost_model = Svagc_vmem.Cost_model
module Perf = Svagc_vmem.Perf

type shard_stats = {
  ss_shard : int;
  ss_leaf_lo : int;
  ss_leaf_hi : int;
  ss_leaves : int;
  ss_present : int;
  ss_swapped : int;
  ss_checksum : int64;
  ss_cost_ns : float;
}

type result = {
  shards : shard_stats array;
  leaves : int;
  present : int;
  swapped : int;
  checksum : int64;
  walk_ns : float;
  makespan_ns : float;
}

(* SplitMix64 finalizer over (vpn, pte word).  Each mapped page mixes to
   one well-scrambled 64-bit value; the window checksum is their Int64
   sum, so it is insensitive to visit order — the property that makes it
   partition-invariant (any shard count) and domain-invariant. *)
let mix ~vpn ~pte =
  let open Int64 in
  let z = add (of_int vpn) (mul (of_int pte) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Leaf-index range [leaf_lo, leaf_hi) covered by the page window. *)
let leaf_range ~vpn_lo ~pages =
  if pages = 0 then (0, 0)
  else
    let leaf_lo = vpn_lo / Addr.pages_per_pmd in
    let leaf_hi = ((vpn_lo + pages - 1) / Addr.pages_per_pmd) + 1 in
    (leaf_lo, leaf_hi)

(* Audit the leaves [gl_lo, gl_hi) of [pt], clipped to the page window
   [vpn_lo, vpn_lo + pages).  Pure read of the page table; all writes go
   to the returned record and [perf] (shard-local by construction). *)
let sweep_leaves pt ~vpn_lo ~pages ~gl_lo ~gl_hi ~shard ~(cost : Cost_model.t)
    ~(perf : Perf.t) =
  let leaves = ref 0 and present = ref 0 and swapped = ref 0 in
  let checksum = ref 0L in
  for l = gl_lo to gl_hi - 1 do
    let leaf_vpn = l * Addr.pages_per_pmd in
    let leaf = Page_table.leaf_at pt (Addr.of_page leaf_vpn) in
    if leaf != Page_table.no_leaf then begin
      let arr = Page_table.leaf_ptes leaf in
      incr leaves;
      let lo = max vpn_lo leaf_vpn in
      let hi = min (vpn_lo + pages) (leaf_vpn + Addr.pages_per_pmd) in
      for vpn = lo to hi - 1 do
        let pte = arr.(vpn - leaf_vpn) in
        if Pte.is_present pte then begin
          incr present;
          checksum := Int64.add !checksum (mix ~vpn ~pte)
        end
        else if Pte.is_swapped pte then begin
          incr swapped;
          checksum := Int64.add !checksum (mix ~vpn ~pte)
        end
      done
    end
  done;
  Perf.bump perf Pt_walks !leaves;
  let cost_ns =
    (float_of_int !leaves *. Cost_model.walk_cost_ns cost)
    +. (float_of_int (!present + !swapped) *. cost.pt_entry_ns)
  in
  {
    ss_shard = shard;
    ss_leaf_lo = gl_lo;
    ss_leaf_hi = gl_hi;
    ss_leaves = !leaves;
    ss_present = !present;
    ss_swapped = !swapped;
    ss_checksum = !checksum;
    ss_cost_ns = cost_ns;
  }

let run ?pool machine pt ~va ~pages ~shards =
  if pages < 0 then invalid_arg "Par_sweep.run: pages < 0";
  if shards <= 0 then invalid_arg "Par_sweep.run: shards <= 0";
  let pool = match pool with Some p -> p | None -> Domain_pool.global () in
  let vpn_lo = Addr.page_number va in
  let leaf_lo, leaf_hi = leaf_range ~vpn_lo ~pages in
  let nleaves = leaf_hi - leaf_lo in
  (* One perf delta per shard, allocated up front on the caller so the
     workers only ever write into their own slot. *)
  let perfs = Array.init shards (fun _ -> Perf.create ()) in
  let stats =
    Domain_pool.map_shards pool ~shards (fun i ->
        let lo, hi = Reduce.slice ~len:nleaves ~shards i in
        sweep_leaves pt ~vpn_lo ~pages ~gl_lo:(leaf_lo + lo)
          ~gl_hi:(leaf_lo + hi) ~shard:i ~cost:machine.Machine.cost
          ~perf:perfs.(i))
  in
  Reduce.merge_perfs ~into:machine.Machine.perf perfs;
  let leaves =
    Reduce.sum_ints (Array.map (fun s -> s.ss_leaves) stats)
  and present =
    Reduce.sum_ints (Array.map (fun s -> s.ss_present) stats)
  and swapped =
    Reduce.sum_ints (Array.map (fun s -> s.ss_swapped) stats)
  and checksum =
    Reduce.fold_shards stats ~init:0L ~f:(fun acc s ->
        Int64.add acc s.ss_checksum)
  in
  let costs = Array.map (fun s -> s.ss_cost_ns) stats in
  let walk_ns = Reduce.sum_floats costs in
  let makespan_ns =
    Work_steal.makespan ~threads:shards
      ~steal_ns:machine.Machine.cost.steal_ns
      ~barrier_ns:machine.Machine.cost.barrier_ns costs
  in
  { shards = stats; leaves; present; swapped; checksum; walk_ns; makespan_ns }

let checksum_reference pt ~va ~pages =
  let vpn_lo = Addr.page_number va in
  let acc = ref 0L in
  for vpn = vpn_lo to vpn_lo + pages - 1 do
    let pte = Page_table.get_pte pt (Addr.of_page vpn) in
    if Pte.is_mapped pte then acc := Int64.add !acc (mix ~vpn ~pte)
  done;
  !acc
