open Svagc_vmem

type opts = {
  pmd_caching : bool;
  flush : Shootdown.policy;
}

let default_opts = { pmd_caching = true; flush = Shootdown.Local_pinned }
let naive_opts = { pmd_caching = false; flush = Shootdown.Broadcast_per_call }

type request = {
  src : int;
  dst : int;
  pages : int;
}

let ranges_overlap { src; dst; pages } =
  let len = pages * Addr.page_size in
  let lo = min src dst and hi = max src dst in
  hi < lo + len

module Kernel_error = Svagc_fault.Kernel_error

(* Kernel internals signal failure by raising [Kernel_error.Fault]; the
   syscall boundary ([swap] / [swap_aggregated]) catches it and returns the
   payload as a typed error.  Every raise below precedes all PTE mutation
   for its request, which is what lets the boundary promise "Error implies
   no mutation". *)
let kerror e = raise (Kernel_error.Fault e)

let validate { src; dst; pages } =
  if pages <= 0 then kerror (Kernel_error.EINVAL_bad_pages { pages });
  if not (Addr.is_page_aligned src) then
    kerror (Kernel_error.EINVAL_unaligned { va = src });
  if not (Addr.is_page_aligned dst) then
    kerror (Kernel_error.EINVAL_unaligned { va = dst });
  if src = dst then kerror Kernel_error.EINVAL_identical

let unmapped ~va () = kerror (Kernel_error.EFAULT_unmapped { va })

(* One iteration of Algorithm 1's loop: getPTE both pages, take both
   locks, exchange the two PTE words. *)
let exchange_page walker ~src ~dst =
  let leaf1 = Pte_walker.get_pte walker src in
  let leaf2 = Pte_walker.get_pte walker dst in
  Pte_walker.charge_lock_pair walker;
  Pte_walker.charge_lock_pair walker;
  let i1 = Addr.pte_index src and i2 = Addr.pte_index dst in
  let pte1 = Pte_walker.read_slot walker leaf1 i1 in
  let pte2 = Pte_walker.read_slot walker leaf2 i2 in
  Pte_walker.write_slot walker leaf1 i1 pte2;
  Pte_walker.write_slot walker leaf2 i2 pte1

(* The body of Algorithm 1 for one request, page by page.  Kept as the
   executable reference for the flat engine below: property tests
   assert that both produce identical heap contents, perf-counter deltas
   and bit-identical simulated cost.  Returns the PTE-work cost (no
   syscall/flush). *)
let swap_disjoint_per_page proc ~pmd_caching req =
  let machine = Process.machine proc in
  let aspace = Process.aspace proc in
  let pt = Address_space.page_table aspace in
  let perf = machine.Machine.perf in
  (* vma-style precheck, charged via swap_setup_ns by the caller.  Mapped
     means present OR swapped out: SwapVA exchanges PTE words, and
     exchanging a swap entry just moves the slot reference — no swap-in,
     no device IO.  Only a genuinely absent page is EFAULT. *)
  for i = 0 to req.pages - 1 do
    let off = i * Addr.page_size in
    if not (Pte.is_mapped (Page_table.get_pte pt (req.src + off))) then
      unmapped ~va:(req.src + off) ();
    if not (Pte.is_mapped (Page_table.get_pte pt (req.dst + off))) then
      unmapped ~va:(req.dst + off) ()
  done;
  let walker = Pte_walker.create machine pt ~pmd_caching in
  for i = 0 to req.pages - 1 do
    let off = i * Addr.page_size in
    exchange_page walker ~src:(req.src + off) ~dst:(req.dst + off);
    Perf.bump perf Ptes_swapped 2
  done;
  Perf.bump perf Bytes_remapped (req.pages * Addr.page_size);
  Pte_walker.cost_ns walker

(* Flat body of Algorithm 1: same observable behaviour and simulated cost
   as [swap_disjoint_per_page], paid for with one leaf lookup per
   512-page sub-run instead of two walks + two cache probes per page.
   Both ranges are prechecked first (src, then dst), so a bad range never
   leaves a half-swapped window behind.  The request then splits into
   sub-runs that end wherever either range crosses a leaf.  A sub-run's
   head pages take the reference loop's own [exchange_page] until both
   streams sit in the PMD cache (at most a couple of pages); the rest is
   charged in bulk through [Pte_walker.charge_steady_swap_pages], whose
   memo replays the exact reference float for a repeated key, and
   exchanged with one slice loop.

   With [leaf_swap] (off on the syscall path) sub-runs that cover a
   whole PMD-aligned 512-page leaf on both sides are exchanged at the PMD
   directory level in O(1) simulated cost — this mode deliberately changes
   the cost model and is excluded from the equivalence guarantee. *)
let swap_disjoint_flat ?(fault = None) proc ~pmd_caching ~leaf_swap req =
  let machine = Process.machine proc in
  let pt = Address_space.page_table (Process.aspace proc) in
  let perf = machine.Machine.perf in
  let ps = Addr.page_size in
  let src_leaves = Pte_walker.check_mapped ~fault pt ~va:req.src ~pages:req.pages in
  let dst_leaves = Pte_walker.check_mapped ~fault pt ~va:req.dst ~pages:req.pages in
  Perf.bump perf Leaf_runs (src_leaves + dst_leaves);
  let walker = Pte_walker.create machine pt ~pmd_caching in
  let done_pages = ref 0 in
  while !done_pages < req.pages do
    let src_va = req.src + (!done_pages * ps) in
    let dst_va = req.dst + (!done_pages * ps) in
    let si = Addr.pte_index src_va and di = Addr.pte_index dst_va in
    let avail =
      min (req.pages - !done_pages) (Addr.entries_per_table - max si di)
    in
    if leaf_swap && avail = Addr.pages_per_pmd then begin
      (* Whole-leaf fast path: exchange the two PMD directory entries. *)
      Page_table.swap_pmd_entries pt src_va dst_va;
      Pte_walker.add_cost walker machine.Machine.cost.Cost_model.pmd_swap_ns;
      Perf.bump perf Pmd_leaf_swaps 1;
      Perf.bump perf Ptes_swapped 2
    end
    else begin
      let k = ref 0 in
      if pmd_caching then
        while
          !k < avail
          && not
               (Pte_walker.cache_holds walker (src_va + (!k * ps))
               && Pte_walker.cache_holds walker (dst_va + (!k * ps)))
        do
          exchange_page walker ~src:(src_va + (!k * ps)) ~dst:(dst_va + (!k * ps));
          incr k
        done;
      let bulk = avail - !k in
      if bulk > 0 then begin
        Pte_walker.charge_steady_swap_pages walker ~pages:bulk
          ~cached:pmd_caching;
        Page_table.(
          swap_pte_runs
            (leaf_ptes (leaf_at pt src_va))
            ~start_a:(si + !k)
            (leaf_ptes (leaf_at pt dst_va))
            ~start_b:(di + !k) ~len:bulk)
      end;
      Perf.bump perf Ptes_swapped (2 * avail)
    end;
    done_pages := !done_pages + avail
  done;
  Perf.bump perf Bytes_remapped (req.pages * Addr.page_size);
  Pte_walker.cost_ns walker

(* One request inside an (aggregated or single) call: setup + body.
   Overlapping requests take the Algorithm 2 path, which performs its own
   per-page local flushes; the remote-visibility shootdown is paid once per
   call by [final_flush].  Raises [Kernel_error.Fault] — always before any
   mutation for this request — on invalid input or a firing fault clause;
   the syscall boundary converts that to a typed result. *)
let request_cost proc ~opts req =
  validate req;
  let machine = Process.machine proc in
  let fault = machine.Machine.fault in
  (* The page-table lock for this request: a firing [lock] clause models
     losing the acquisition race, surfaced as the transient EAGAIN. *)
  (match fault with
  | Some inj
    when Svagc_fault.Injector.fire inj ~site:Svagc_fault.Fault_spec.Lock_acquire
           ~va:req.src ->
    kerror Kernel_error.EAGAIN_contended
  | _ -> ());
  let setup = machine.Machine.cost.Cost_model.swap_setup_ns in
  if ranges_overlap req then begin
    let src = min req.src req.dst and dst = max req.src req.dst in
    let per_page_flush =
      match opts.flush with
      | Shootdown.Local_pinned | Shootdown.Self_invalidate -> false
      | Shootdown.Broadcast_per_call | Shootdown.Process_targeted -> true
    in
    match
      Swap_overlap.swap ~fault proc ~pmd_caching:opts.pmd_caching ~per_page_flush
        ~src ~dst ~pages:req.pages
    with
    | Ok body -> setup +. body
    | Error e -> kerror e
  end
  else
    setup
    +. swap_disjoint_flat ~fault proc ~pmd_caching:opts.pmd_caching
         ~leaf_swap:false req

let call_overhead proc =
  let machine = Process.machine proc in
  Perf.bump machine.Machine.perf Syscalls 1;
  Perf.bump machine.Machine.perf Swapva_calls 1;
  machine.Machine.cost.Cost_model.syscall_ns

let final_flush proc ~opts =
  let machine = Process.machine proc in
  Shootdown.flush_after_swap machine
    ~asid:(Address_space.asid (Process.aspace proc))
    ~core:(Process.current_core proc) opts.flush

module Tracer = Svagc_trace.Tracer

(* Record one instant per SwapVA call (not per page): the syscall is the
   event the paper's aggregation argument counts.  The instant advances
   the trace cursor by the call's cost so the flush/IPI events of later
   calls spread through the enclosing compaction span. *)
let trace_call proc ~name ~requests ~ns =
  if Tracer.tracing () then begin
    let pages = List.fold_left (fun acc r -> acc + r.pages) 0 requests in
    Tracer.instant ~cat:"kernel" ~advance_ns:ns
      ~args:
        [
          ("requests", Svagc_trace.Event.Int (List.length requests));
          ("pages", Svagc_trace.Event.Int pages);
          ("core", Svagc_trace.Event.Int (Process.current_core proc));
        ]
      name
  end

type outcome = {
  ns : float;
  completed : int;
  failure : Kernel_error.t option;
}

(* What a failed request still costs: the crossing already happened and the
   kernel did its vma/validation work before bailing out. *)
let failed_request_ns proc =
  (Process.machine proc).Machine.cost.Cost_model.swap_setup_ns

let swap proc ~opts ~src ~dst ~pages =
  let req = { src; dst; pages } in
  let overhead = call_overhead proc in
  match request_cost proc ~opts req with
  | body ->
    let total = overhead +. body +. final_flush proc ~opts in
    trace_call proc ~name:"swapva" ~requests:[ req ] ~ns:total;
    total
  | exception Kernel_error.Fault e ->
    let spent = overhead +. failed_request_ns proc in
    trace_call proc ~name:"swapva.err" ~requests:[ req ] ~ns:spent;
    raise (Kernel_error.Fault_ns (e, spent))

let swap_result proc ~opts ~src ~dst ~pages =
  match swap proc ~opts ~src ~dst ~pages with
  | ns -> Ok ns
  | exception Kernel_error.Fault_ns (e, spent) -> Error (e, spent)

let swap_aggregated proc ~opts requests =
  match requests with
  | [] -> { ns = 0.0; completed = 0; failure = None }
  | _ ->
    let overhead = call_overhead proc in
    let body = ref 0.0 and completed = ref 0 and failure = ref None in
    (try
       List.iter
         (fun req ->
           let c = request_cost proc ~opts req in
           body := !body +. c;
           incr completed)
         requests
     with Kernel_error.Fault e ->
       (* The failing request mutated nothing, but its setup was spent. *)
       body := !body +. failed_request_ns proc;
       failure := Some e);
    (* Earlier requests in the batch did swap PTEs; their visibility flush
       is still owed even when a later request failed. *)
    let flush = if !completed > 0 then final_flush proc ~opts else 0.0 in
    let total = overhead +. !body +. flush in
    let name =
      if !failure = None then "swapva.aggregated" else "swapva.aggregated.err"
    in
    trace_call proc ~name ~requests ~ns:total;
    { ns = total; completed = !completed; failure = !failure }

let swap_separated proc ~opts requests =
  let ns = ref 0.0 and completed = ref 0 and failure = ref None in
  (try
     List.iter
       (fun { src; dst; pages } ->
         ns := !ns +. swap proc ~opts ~src ~dst ~pages;
         incr completed)
       requests
   with Kernel_error.Fault_ns (e, spent) ->
     ns := !ns +. spent;
     failure := Some e);
  { ns = !ns; completed = !completed; failure = !failure }
