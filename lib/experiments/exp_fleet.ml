(** Fleet extension — 1k+ heterogeneous tenants on one overcommitted
    node (extension; not a paper figure).

    {!Svagc_fleet.Fleet} admits tenants against a 2x-overcommitted
    budget, caps each with a memory cgroup (soft/hard resident-frame
    limits), and spills cold pages through a two-tier swap device (local
    NVMe + slower far memory).  The experiment contrasts the two
    compaction engines under that regime: SwapVA exchanges PTEs — a
    swapped PTE participates as a swap-slot handle regardless of which
    tier holds the payload — while memmove must demand-fault both sides
    of every copy, eating the far-tier latency on each cold page.  The
    headline gate (enforced by the p99 gate in [test/test_fleet.ml]) is
    the tail: SwapVA's p99 GC pause must not exceed memmove's under
    identical pressure. *)

module Fleet = Svagc_fleet.Fleet
module Admission = Svagc_fleet.Admission
module Histogram = Svagc_util.Histogram
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table
open Svagc_vmem

let config_for ~quick =
  if quick then { Fleet.default with Fleet.tenants = 96; surge = 12; steps = 3 }
  else Fleet.default

let measure ~quick kind =
  Fleet.run
    ~collector_of:(Exp_common.collector_of kind)
    ~label:(Exp_common.collector_name kind)
    (config_for ~quick)

let class_rows (r : Fleet.result) =
  let classes = [ "small"; "medium"; "large" ] in
  List.map
    (fun cls ->
      let ran = ref 0 in
      (* One append pass per class (merge-into-fresh here was the other
         O(tenants * samples) fold on the 10k-tenant path). *)
      let merged = Histogram.create () in
      Array.iter
        (fun (t : Fleet.tenant_stats) ->
          if t.Fleet.t_class = cls && t.Fleet.t_wave >= 0 then begin
            incr ran;
            Histogram.merge_into ~into:merged t.Fleet.t_gc_pauses
          end)
        r.Fleet.stats;
      [
        r.Fleet.label;
        cls;
        string_of_int !ran;
        Report.ns (Histogram.p50 merged);
        Report.ns (Histogram.p99 merged);
        Report.ns (Histogram.p999 merged);
      ])
    classes

let summary_row (r : Fleet.result) =
  let near, far = r.Fleet.tier in
  [
    r.Fleet.label;
    string_of_int (Array.length r.Fleet.stats);
    string_of_int r.Fleet.admitted;
    string_of_int r.Fleet.queued;
    string_of_int r.Fleet.rejected;
    string_of_int r.Fleet.waves;
    Printf.sprintf "%d/%d" r.Fleet.committed_frames r.Fleet.pool_frames;
    Printf.sprintf "%d+%d" near far;
    string_of_int (Perf.get r.Fleet.perf Tier_demotions);
    string_of_int (Perf.get r.Fleet.perf Tier_promotions);
  ]

let pause_row (r : Fleet.result) =
  [
    r.Fleet.label;
    string_of_int (Histogram.count r.Fleet.pauses);
    Report.ns (Histogram.p50 r.Fleet.pauses);
    Report.ns (Histogram.p99 r.Fleet.pauses);
    Report.ns (Histogram.p999 r.Fleet.pauses);
    Report.ns r.Fleet.max_tenant_p99_pause;
    Report.ns (Histogram.p50 r.Fleet.stalls);
    Report.ns (Histogram.p99 r.Fleet.stalls);
    Report.ns (Histogram.p999 r.Fleet.stalls);
  ]

let print_results results =
  Table.print
    ~headers:
      [
        "collector"; "tenants"; "admitted"; "queued"; "rejected"; "waves";
        "committed/pool"; "near+far"; "demotions"; "promotions";
      ]
    (List.map summary_row results);
  Table.print
    ~headers:
      [
        "collector"; "pauses"; "pause p50"; "pause p99"; "pause p999";
        "max tenant p99"; "stall p50"; "stall p99"; "stall p999";
      ]
    (List.map pause_row results);
  Table.print
    ~headers:[ "collector"; "class"; "ran"; "p50"; "p99"; "p999" ]
    (List.concat_map class_rows results)

let run ?(quick = false) () =
  Report.section
    "Fleet (extension) - multi-tenant cgroups, admission & far memory";
  let cfg = config_for ~quick in
  Report.kv "tenants"
    (Printf.sprintf "%d + %d surge" cfg.Fleet.tenants cfg.Fleet.surge);
  Report.kv "overcommit" (Printf.sprintf "%gx" cfg.Fleet.overcommit);
  Report.kv "far tier"
    (Printf.sprintf "%gx near cost" Svagc_reclaim.Swap_tier.far_cost_factor);
  let svagc = measure ~quick Exp_common.Svagc in
  let memmove = measure ~quick Exp_common.Lisp2_memmove in
  print_results [ svagc; memmove ];
  let sv99 = Histogram.p99 svagc.Fleet.pauses in
  let mm99 = Histogram.p99 memmove.Fleet.pauses in
  Report.kv "p99 gate"
    (Printf.sprintf "SwapVA %s %s memmove %s" (Report.ns sv99)
       (if sv99 <= mm99 then "<=" else "EXCEEDS")
       (Report.ns mm99));
  Report.note
    "every tenant commits its cgroup hard limit on admission; the pool \
     holds 1/overcommit of the total commitment, so kswapd keeps \
     over-soft tenants' cold pages cycling through the tiered swap \
     device. SwapVA compacts swapped pages by exchanging slot handles - \
     cold data stays in the far tier - while memmove faults each cold \
     page back through the far tier's latency before copying it"
