(* The metric catalogue and the order statistics shared by [run] and
   [compare].  BENCHMARK.json at the repository root mirrors [end_to_end]
   and [per_layer]; the runtest smoke rule fails if the two disagree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (** share of the parent's median a metric may worsen by before it
          counts as a regression; 0 for per-layer metrics, which have none *)
  exact : bool;
      (** simulated: a change that only touches host code must leave it
          bit-identical *)
}

let e2e ?(exact = false) name unit_ better bound =
  { name; unit_; better; bound; exact }

let layer ?(exact = false) ?(better = Lower) name unit_ =
  { name; unit_; better; bound = 0.0; exact }

let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "steps_per_s" "1/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
    e2e ~exact:true "sim_pause_p50_ms" "ms" Lower 0.05;
    e2e ~exact:true "sim_pause_tail_ms" "ms" Lower 0.25;
  ]

(* Host-time sections, in the order the report lists them.  Each one
   yields four per-layer metrics. *)
let sections =
  [
    "fleet.driver";
    "workloads.driver";
    "gc.collect";
    "gc.prologue";
    "gc.move";
    "gc.epilogue";
    "reclaim.fault_in";
    "reclaim.page_mapped";
    "reclaim.page_touched";
    "reclaim.adopt";
    "reclaim.drain";
    "reclaim.page_unmapped";
    "trace.poll";
  ]

(* Perf counters read by name through [Perf.to_assoc]. *)
let counters =
  [
    "sched_dispatched";
    "gc_cycles";
    "swapva_calls";
    "memmove_calls";
    "bytes_remapped";
    "bytes_copied";
    "shootdown_broadcasts";
    "ipis_sent";
    "major_faults";
    "pages_swapped_out";
    "pages_swapped_in";
    "kswapd_wakes";
    "reclaim_scans";
    "tier_demotions";
    "tier_promotions";
    "admission_rejects";
  ]

let per_layer =
  List.concat_map
    (fun s ->
      [
        layer (s ^ ".self_ms") "ms";
        layer ~exact:true (s ^ ".calls") "count";
        layer (s ^ ".ns_per_call") "ns";
        layer (s ^ ".alloc_mwords") "Mwords";
      ])
    sections
  @ [
      layer "ocaml_gc.minor_ms" "ms";
      layer "ocaml_gc.minor_count" "count";
      layer "ocaml_gc.major_ms" "ms";
      layer "ocaml_gc.major_count" "count";
      layer "ocaml_gc.lost_events" "count";
    ]
  @ List.map (fun c -> layer ~exact:true c "count") counters
  @ [
      layer ~exact:true ~better:Higher "reclaim.scan_efficiency" "ratio";
      layer ~exact:true ~better:Higher "gc.swap_fraction" "ratio";
      layer ~exact:true "tier.promotion_ratio" "ratio";
      layer ~exact:true "sim.mark_ms" "ms";
      layer ~exact:true "sim.forward_ms" "ms";
      layer ~exact:true "sim.adjust_ms" "ms";
      layer ~exact:true "sim.compact_ms" "ms";
      layer ~exact:true "sim_total_s" "s";
      layer ~exact:true "sim_pause_p99_ms" "ms";
      layer ~exact:true "sim_pause_samples" "count";
      layer ~exact:true "sim_stall_p99_ms" "ms";
      layer "trace_overhead_frac" "ratio";
      layer "host.raw_wall_s" "s";
      layer ~better:Higher "host.speed" "ratio";
      layer ~better:Higher "trace.attributed_frac" "ratio";
    ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"

(* [median] and [quartiles] follow Python's [statistics.median] and
   [statistics.quantiles ~n:4] (the default "exclusive" method), so the
   spreads printed here are the ones an external checker computes. *)
let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
