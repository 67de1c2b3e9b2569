open Svagc_heap
module Addr = Svagc_vmem.Addr
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Shootdown = Svagc_kernel.Shootdown
module Compact = Svagc_gc.Compact
module Perf = Svagc_vmem.Perf
module Tracer = Svagc_trace.Tracer

let swap_opts (cfg : Config.t) =
  { Swapva.pmd_caching = cfg.pmd_caching; flush = cfg.flush }

module Kernel_error = Svagc_fault.Kernel_error

(* A pending SwapVA request and the plan slice [lo, hi) it moves.  Only
   the newest request is ever extended, so each slice is contiguous and a
   request the kernel refuses can still be completed object by object
   with memmove. *)
type pending = {
  src : int;
  dst : int;
  mutable pages : int;
  lo : int;
  mutable hi : int;
}

let max_swap_retries = 3

let object_pages (o : Obj_model.t) = Addr.pages_spanned o.size

let trace_fallback err ~entries ~pages ~retries =
  if Tracer.tracing () then
    Tracer.instant ~cat:"gc"
      ~args:
        [
          ("error", Svagc_trace.Event.Str (Kernel_error.errno_name err));
          ("detail", Svagc_trace.Event.Str (Kernel_error.to_string err));
          ("entries", Svagc_trace.Event.Int entries);
          ("pages", Svagc_trace.Event.Int pages);
          ("retries", Svagc_trace.Event.Int retries);
        ]
      "gc.swap_fallback"

(* A move of [pages] pages from [src] to [dst] butts against [p] on both
   sides, and the merged ranges stay disjoint (overlap would change which
   kernel path runs). *)
let extends p ~src ~dst ~pages =
  let bytes = p.pages * Addr.page_size in
  p.src + bytes = src
  && p.dst + bytes = dst
  && not
       (Swapva.ranges_overlap { Swapva.src = p.src; dst = p.dst; pages = p.pages + pages })

let request p = { Swapva.src = p.src; dst = p.dst; pages = p.pages }

let mover ?measure_core (cfg : Config.t) =
  Config.validate cfg;
  let pinned = cfg.flush = Shootdown.Local_pinned in
  let prologue heap =
    let proc = Heap.proc heap in
    (* Arm the machine's fault plane on first use.  Installation is
       idempotent across GC cycles (the injector's streams keep advancing,
       so cycles see fresh draws), and an empty spec installs nothing —
       keeping the zero-fault configuration bit-identical to a build
       without the plane. *)
    (if not (Svagc_fault.Fault_spec.is_empty cfg.fault_spec) then
       let machine = Process.machine proc in
       match machine.Machine.fault with
       | Some _ -> ()
       | None ->
         machine.Machine.fault <-
           Some (Svagc_fault.Injector.create cfg.fault_spec ~seed:cfg.fault_seed));
    if pinned then begin
      let machine = Process.machine proc in
      let pin_cost = Process.pin proc ~core:(Process.current_core proc) in
      let flush_cost =
        Shootdown.cycle_prologue machine
          ~asid:(Svagc_vmem.Address_space.asid (Process.aspace proc))
          ~core:(Process.current_core proc) Shootdown.Local_pinned
      in
      pin_cost +. flush_cost
    end
    else 0.0
  in
  let epilogue heap =
    let proc = Heap.proc heap in
    if pinned then Process.unpin proc else 0.0
  in
  let move_entries heap { Compact.objects = plan; streams } =
    let proc = Heap.proc heap in
    let aspace = Process.aspace proc in
    let machine = Process.machine proc in
    let perf = machine.Machine.perf in
    let cost = machine.Machine.cost in
    let opts = swap_opts cfg in
    let costs = Array.make (Array.length plan) 0.0 in
    let swapped = ref 0 in
    let memmove i =
      let o = plan.(i) in
      Memmove.move_into costs i ~measure_core ~cold:true ~streams aspace
        ~src:o.Obj_model.addr ~dst:o.Obj_model.forward ~len:o.Obj_model.size
    in
    (* [p]'s objects went through SwapVA: distribute the call's cost over
       them, proportional to page counts (the dominant term).  Each
       attribution is an independent float expression, so the order the
       slots are written in cannot change any value. *)
    let swapped_all ~total ~total_pages p =
      for i = p.lo to p.hi - 1 do
        costs.(i) <-
          total *. float_of_int (object_pages plan.(i)) /. float_of_int (max 1 total_pages)
      done;
      swapped := !swapped + (p.hi - p.lo)
    in
    (* A request the kernel failed: bounded retry for transient errors,
       then graceful degradation to the byte-copy path.  [carry] is
       simulated ns already spent on the failed attempt(s) that still must
       be charged.

       The kernel's "error implies no mutation" contract is what makes
       this sound: a failed request left every object at its source
       address, so memmove sees exactly the pre-call bytes.
       Non-degradable EINVALs are a GC bug (malformed request) and
       re-raised loudly. *)
    let degrade ~carry err p =
      if not (Kernel_error.is_degradable err) then raise (Kernel_error.Fault err);
      (* Bounded retry with exponential backoff, transient errors only. *)
      let spent = ref carry in
      let retries = ref 0 in
      let result = ref (Error err) in
      while
        (match !result with Error e -> Kernel_error.is_transient e | Ok _ -> false)
        && !retries < max_swap_retries
      do
        spent :=
          !spent
          +. (cost.Cost_model.retry_backoff_ns *. (2.0 ** float_of_int !retries));
        incr retries;
        Perf.bump perf Swap_retries 1;
        match Swapva.swap_result proc ~opts ~src:p.src ~dst:p.dst ~pages:p.pages with
        | Ok ns -> result := Ok ns
        | Error (e, attempt_ns) ->
          spent := !spent +. attempt_ns;
          result := Error e
      done;
      match !result with
      | Ok ns ->
        (* A retry went through: the objects were swapped after all;
           spread the whole episode's cost (backoffs + failed attempts +
           success). *)
        swapped_all ~total:(!spent +. ns) ~total_pages:p.pages p
      | Error err ->
        if not (Kernel_error.is_degradable err) then raise (Kernel_error.Fault err);
        Perf.bump perf Swap_fallbacks 1;
        trace_fallback err ~entries:(p.hi - p.lo) ~pages:p.pages ~retries:!retries;
        (* Degrade: complete every object of the request with memmove.
           The accumulated failure cost rides on the first object. *)
        for i = p.lo to p.hi - 1 do
          memmove i
        done;
        costs.(p.lo) <- !spent +. costs.(p.lo)
    in
    (* Flush pending requests (oldest first) as one aggregated call.  The
       fault-free path is float-for-float identical to charging the call
       total proportionally by page count.  On a typed kernel failure the
       batch degrades per the DESIGN.md fault chapter: completed requests
       keep their swaps, the failing request retries/falls back to
       memmove, and the untried suffix is re-flushed (a fresh syscall
       batch). *)
    let rec flush_batch = function
      | [] -> ()
      | batch -> (
        let outcome = Swapva.swap_aggregated proc ~opts (List.map request batch) in
        match outcome.Swapva.failure with
        | None ->
          let total_pages = List.fold_left (fun acc p -> acc + p.pages) 0 batch in
          List.iter (swapped_all ~total:outcome.Swapva.ns ~total_pages) batch
        | Some err ->
          let completed = outcome.Swapva.completed in
          (* Completed requests absorb the call's cost (including the
             failed request's setup — the price of discovering the fault);
             when nothing completed, the whole spent ns carries to the
             failed request's handling so no simulated time is lost. *)
          let done_pages = ref 0 in
          List.iteri
            (fun k p -> if k < completed then done_pages := !done_pages + p.pages)
            batch;
          let rec split k = function
            | failed :: rest when k = completed ->
              let carry = if completed = 0 then outcome.Swapva.ns else 0.0 in
              degrade ~carry err failed;
              flush_batch rest
            | p :: rest ->
              swapped_all ~total:outcome.Swapva.ns ~total_pages:!done_pages p;
              split (k + 1) rest
            | [] -> assert false
          in
          split 0 batch)
    in
    (* Runs of consecutive swappable moves become one aggregated call;
       order across runs and memmoves is preserved, so the sliding
       invariant holds.  An object that {!extends} the newest pending
       request grows it in place — one larger request, one setup fee.
       [pending] is newest-first. *)
    let pending = ref [] in
    let pending_count = ref 0 in
    let coalesced = ref 0 in
    let flush_pending () =
      match !pending with
      | [] -> ()
      | newest :: _ ->
        let batch = List.rev !pending in
        flush_batch batch;
        if Tracer.tracing () then
          Tracer.instant ~cat:"gc"
            ~args:
              [
                ("entries", Svagc_trace.Event.Int (newest.hi - (List.hd batch).lo));
                ("requests", Svagc_trace.Event.Int !pending_count);
                ("coalesced", Svagc_trace.Event.Int !coalesced);
              ]
            "gc.swap_batch";
        pending := [];
        pending_count := 0;
        coalesced := 0
    in
    Array.iteri
      (fun i o ->
        let src = o.Obj_model.addr and dst = o.Obj_model.forward in
        (* The heap's own IfSwapAlign test, not [cfg.threshold_pages]:
           the paper's Algorithm 3 writes the threshold both as pages >= T
           (MoveObject) and |object| >= T*|PAGE| (IfSwapAlign), and only
           objects that passed the latter were placed page-aligned.
           [Svagc.collector] rejects a config whose threshold disagrees. *)
        if Heap.swap_sized heap ~size:o.Obj_model.size then begin
          assert (Addr.is_page_aligned src && Addr.is_page_aligned dst);
          let pages = object_pages o in
          match !pending with
          | p :: _ when extends p ~src ~dst ~pages ->
            p.pages <- p.pages + pages;
            p.hi <- i + 1;
            Perf.bump perf Runs_coalesced 1;
            incr coalesced
          | _ ->
            pending := { src; dst; pages; lo = i; hi = i + 1 } :: !pending;
            incr pending_count;
            if !pending_count >= cfg.aggregation_batch then flush_pending ()
        end
        else begin
          flush_pending ();
          memmove i
        end)
      plan;
    flush_pending ();
    (costs, !swapped)
  in
  { Compact.mover_name = "swapva"; prologue; move_entries; epilogue }
