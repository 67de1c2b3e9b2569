(* Host-memory budget of the fleet: run the SVAGC fleet at two tenant
   counts, smaller first, in this one process, and read the OCaml major
   heap's high-water mark after each.  The growth per added tenant must
   stay under [ceiling_words].

   The ceiling is the measured slope plus a stated slack.  With sparse
   page payloads and the page table kept as a leaf index the slope is
   about 6,250 words (50 KB) per tenant.  This test rejects the earlier
   layouts: about 8,650 words while each page table was a four-level
   tree of 512-slot directories, and about 16,200 words (130 KB) when
   every touched frame held a whole 4 KiB page.  The slack (27%) covers
   changes in the OCaml runtime's heap growth policy, not in the
   simulator: the runs are deterministic. *)

module Fleet = Svagc_fleet.Fleet
module Exp_common = Svagc_experiments.Exp_common

let small = 100
let large = 400
let ceiling_words = 7_950

let top_heap_after tenants =
  ignore
    (Fleet.run
       ~collector_of:(Exp_common.collector_of Exp_common.Svagc)
       ~label:"svagc"
       { Fleet.default with Fleet.tenants; steps = 3 });
  (Gc.quick_stat ()).Gc.top_heap_words

let () =
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
