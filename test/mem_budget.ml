(* Host-memory budgets, each read from the OCaml major heap's high-water
   mark ([top_heap_words]).  That mark is process-wide and never falls, so
   each check runs in a process of its own: no argument runs the fleet
   check, [suite] the suite check.

   Fleet: run the SVAGC fleet at two tenant counts, smaller first, and
   read the mark after each.  The growth per added tenant must stay under
   [ceiling_words].  The ceiling is the measured slope plus a stated
   slack.  With sparse page payloads, the page table kept as a leaf index
   and references holding their target the slope is about 5,420 words
   (43 KB) per tenant, under a ceiling of 6,900.  This test rejects the
   earlier layouts: about 8,650 words while each page table was a
   four-level tree of 512-slot directories, and about 16,200 words
   (130 KB) when every touched frame held a whole 4 KiB page.  The slack
   (27%) covers changes in the OCaml runtime's heap growth policy, not in
   the simulator: the runs are deterministic.

   Suite: run two small suite benchmarks through [Runner.run] eight times
   back to back, each on a fresh machine.  A finished run's machine is
   garbage, so the mark must level off: after run 8 it may exceed its
   value after run 2 by at most [suite_slack_pct].  Measured, it levels
   off by run 4, about 7% above run 2.  A runner that kept every run's
   JVM alive reached over four times run 2's mark by run 8. *)

module Fleet = Svagc_fleet.Fleet
module Exp_common = Svagc_experiments.Exp_common
module Runner = Svagc_workloads.Runner

let small = 100
let large = 400
let ceiling_words = 6_900

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let top_heap_after tenants =
  ignore
    (Fleet.run
       ~collector_of:(Exp_common.collector_of Exp_common.Svagc)
       ~label:"svagc"
       { Fleet.default with Fleet.tenants; steps = 3 });
  top_heap_words ()

let fleet () =
  let h_small = top_heap_after small in
  let h_large = top_heap_after large in
  let slope = (h_large - h_small) / (large - small) in
  Printf.printf
    "mem_budget: top heap %d words at %d tenants, %d at %d: %d words per \
     tenant (ceiling %d)\n"
    h_small small h_large large slope ceiling_words;
  if slope > ceiling_words then begin
    prerr_endline "mem_budget: per-tenant host heap growth is over the ceiling";
    exit 1
  end

let suite_runs = 8
let suite_slack_pct = 25

(* The mark after each of [suite_runs] passes over the pair. *)
let suite_top_heaps () =
  List.init suite_runs (fun _ ->
      List.iter
        (fun w ->
          ignore
            (Runner.run
               ~machine:(Exp_common.fresh_machine Svagc_vmem.Cost_model.xeon_6130)
               ~collector_of:(Exp_common.collector_of Exp_common.Svagc)
               w))
        [ Svagc_workloads.Sparse.quarter; Svagc_workloads.Fft.sixteenth ];
      top_heap_words ())

let suite () =
  let tops = suite_top_heaps () in
  let h2 = List.nth tops 1 and h8 = List.nth tops (suite_runs - 1) in
  Printf.printf
    "mem_budget: top heap %d words after suite run 2, %d after run %d \
     (slack %d%%)\n"
    h2 h8 suite_runs suite_slack_pct;
  if h8 * 100 > h2 * (100 + suite_slack_pct) then begin
    prerr_endline "mem_budget: back-to-back suite runs keep host heap growing";
    exit 1
  end

let () =
  match Sys.argv with
  | [| _ |] -> fleet ()
  | [| _; "suite" |] -> suite ()
  | _ ->
    prerr_endline "usage: mem_budget [suite]";
    exit 2
