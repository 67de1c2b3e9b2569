open Svagc_vmem

type policy =
  | Broadcast_per_call
  | Process_targeted
  | Local_pinned
  | Self_invalidate

(* Epoch bump: one atomic store plus store-buffer drain. *)
let epoch_bump_ns = 45.0

let policy_name = function
  | Broadcast_per_call -> "broadcast-per-call"
  | Process_targeted -> "process-targeted"
  | Local_pinned -> "local-pinned"
  | Self_invalidate -> "self-invalidate"

module Tracer = Svagc_trace.Tracer

(* No cursor advance here: the enclosing SwapVA call instant advances by
   the whole call cost, flush included. *)
let trace_flush ~core policy ns =
  if Tracer.tracing () then
    Tracer.instant ~cat:"kernel"
      ~args:
        [
          ("policy", Svagc_trace.Event.Str (policy_name policy));
          ("core", Svagc_trace.Event.Int core);
          ("cost_ns", Svagc_trace.Event.Float ns);
        ]
      "tlb_flush"

let flush_after_swap machine ~asid ~core policy =
  (* State change is policy-independent; only the charged cost differs. *)
  Machine.flush_asid_everywhere machine ~asid;
  let cost = machine.Machine.cost in
  let ns =
    match policy with
    | Broadcast_per_call ->
      Perf.bump machine.Machine.perf Tlb_flush_local 1;
      cost.Cost_model.tlb_flush_local_ns
      +. Machine.ipi_broadcast_cost machine ~from_core:core
    | Process_targeted ->
      (* Remote cores only walk their own TLB for this asid: cheaper ack
         path, modeled as 60% of a full IPI round trip.  Same costed
         broadcast helper (and same counters — a targeted shootdown is
         still one broadcast of [ncores - 1] IPIs; a lost IPI is resent at
         full, not 0.6x, price). *)
      Perf.bump machine.Machine.perf Tlb_flush_local 1;
      cost.Cost_model.tlb_flush_local_ns
      +. Machine.ipi_broadcast_cost ~scale:0.6 machine ~from_core:core
    | Local_pinned ->
      Perf.bump machine.Machine.perf Tlb_flush_local 1;
      cost.Cost_model.tlb_flush_local_ns
    | Self_invalidate ->
      Perf.bump machine.Machine.perf Tlb_flush_local 1;
      cost.Cost_model.tlb_flush_local_ns +. epoch_bump_ns
  in
  trace_flush ~core policy ns;
  Machine.notify_shootdown machine ~asid;
  ns

let cycle_prologue machine ~asid ~core policy =
  match policy with
  | Broadcast_per_call | Process_targeted | Self_invalidate -> 0.0
  | Local_pinned -> Machine.flush_tlb_all_cores machine ~asid ~from_core:core
