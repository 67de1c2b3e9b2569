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

(* A batch item: one SwapVA request plus the compaction entries coalesced
   into it (head first).  Entries keep their (src, dst, len) so a request
   the kernel refuses can still be completed entry-by-entry with memmove. *)
type batch_entry = { e_src : int; e_dst : int; e_len : int; e_pages : int }

let max_swap_retries = 3

(* Distribute a call's cost over the entries it moved, proportional to
   page counts (the dominant term).  Outcomes are handed to [emit] rather
   than collected in lists: the batch machinery below emits straight into
   the caller's output vector, so the fault-free path builds no
   per-entry cost lists (each attribution is an independent float
   expression, so emission order cannot change any value). *)
let emit_attributed ~emit ~total ~total_pages ~swapped entries =
  List.iter
    (fun e ->
      emit (total *. float_of_int e.e_pages /. float_of_int (max 1 total_pages))
        swapped)
    entries

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

(* A request the kernel failed: bounded retry for transient errors, then
   graceful degradation to the byte-copy path.  [carry] is simulated ns
   already spent on the failed attempt(s) that still must be charged.
   Emits one (cost, swapped) outcome per entry of the item.

   The kernel's "error implies no mutation" contract is what makes this
   sound: a failed request left every entry at its source address, so
   memmove sees exactly the pre-call bytes.  Non-degradable EINVALs are a
   GC bug (malformed request) and re-raised loudly. *)
let degrade_item proc ~opts ~aspace ?measure_core ~emit ~carry err (req, entries)
    =
  let machine = Process.machine proc in
  let perf = machine.Machine.perf in
  let cost = machine.Machine.cost in
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
      !spent +. (cost.Cost_model.retry_backoff_ns *. (2.0 ** float_of_int !retries));
    incr retries;
    Perf.bump perf Swap_retries 1;
    match
      Swapva.swap_result proc ~opts ~src:req.Swapva.src ~dst:req.Swapva.dst
        ~pages:req.Swapva.pages
    with
    | Ok ns -> result := Ok ns
    | Error (e, attempt_ns) ->
      spent := !spent +. attempt_ns;
      result := Error e
  done;
  let total_pages = req.Swapva.pages in
  match !result with
  | Ok ns ->
    (* A retry went through: entries were swapped after all; spread the
       whole episode's cost (backoffs + failed attempts + success). *)
    let total = !spent +. ns in
    emit_attributed ~emit ~total ~total_pages ~swapped:true entries
  | Error err ->
    if not (Kernel_error.is_degradable err) then raise (Kernel_error.Fault err);
    Perf.bump perf Swap_fallbacks 1;
    trace_fallback err ~entries:(List.length entries) ~pages:total_pages
      ~retries:!retries;
    (* Degrade: complete every entry of the request with memmove.  The
       accumulated failure cost rides on the first entry. *)
    List.iteri
      (fun i e ->
        let mv =
          Memmove.move ?measure_core ~cold:true aspace ~src:e.e_src ~dst:e.e_dst
            ~len:e.e_len
        in
        emit (if i = 0 then !spent +. mv else mv) false)
      entries

(* Flush a pending batch of swap requests, emitting one (cost_ns, swapped)
   outcome per compaction entry, in entry order.  The fault-free path is
   float-for-float identical to charging the call total proportionally by
   page count.  On a typed kernel failure the batch degrades per the
   DESIGN.md fault chapter: completed requests keep their swaps, the
   failing request retries/falls back to memmove, and the untried suffix
   is re-flushed (a fresh syscall batch). *)
let rec flush_batch proc ~opts ~aspace ?measure_core ~emit batch =
  match batch with
  | [] -> ()
  | items ->
    let requests = List.map fst items in
    let outcome = Swapva.swap_aggregated proc ~opts requests in
    (match outcome.Swapva.failure with
    | None ->
      let total_pages =
        List.fold_left (fun acc r -> acc + r.Swapva.pages) 0 requests
      in
      List.iter
        (fun (_, entries) ->
          emit_attributed ~emit ~total:outcome.Swapva.ns ~total_pages
            ~swapped:true entries)
        items
    | Some err ->
      let completed = outcome.Swapva.completed in
      let rec split k acc = function
        | failed :: rest when k = 0 -> (List.rev acc, failed, rest)
        | item :: rest -> split (k - 1) (item :: acc) rest
        | [] -> assert false
      in
      let done_items, failed_item, rest_items = split completed [] items in
      (* Completed requests absorb the call's cost (including the failed
         request's setup — the price of discovering the fault); when
         nothing completed, the whole spent ns carries to the failed
         request's handling so no simulated time is lost. *)
      let done_pages =
        List.fold_left (fun acc (r, _) -> acc + r.Swapva.pages) 0 done_items
      in
      List.iter
        (fun (_, entries) ->
          emit_attributed ~emit ~total:outcome.Swapva.ns ~total_pages:done_pages
            ~swapped:true entries)
        done_items;
      let carry = if completed = 0 then outcome.Swapva.ns else 0.0 in
      degrade_item proc ~opts ~aspace ?measure_core ~emit ~carry err failed_item;
      flush_batch proc ~opts ~aspace ?measure_core ~emit rest_items)

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
  let move_entries heap entries =
    let proc = Heap.proc heap in
    let aspace = Process.aspace proc in
    let perf = (Process.machine proc).Machine.perf in
    let opts = swap_opts cfg in
    let out = Svagc_util.Vec.create () in
    (* Runs of consecutive swappable moves become one aggregated call;
       order across runs and memmoves is preserved, so the sliding
       invariant holds.  An entry whose src AND dst ranges butt against the previous pending request merges into it —
       one larger request, one setup fee — as long as the merged ranges
       stay disjoint (overlap would change which kernel path runs).
       [pending] is newest-first; each item carries the reversed per-entry
       page counts so flushing can attribute one outcome per entry. *)
    let pending = ref [] in
    let pending_count = ref 0 in
    let pending_entries = ref 0 in
    let coalesced = ref 0 in
    let emit cost_ns swapped =
      Svagc_util.Vec.push out { Compact.cost_ns; swapped }
    in
    let flush_pending () =
      if !pending <> [] then begin
        let items = List.rev_map (fun (r, ep) -> (r, List.rev ep)) !pending in
        flush_batch proc ~opts ~aspace ?measure_core ~emit items
      end;
      if !pending_count > 0 && Tracer.tracing () then
        Tracer.instant ~cat:"gc"
          ~args:
            [
              ("entries", Svagc_trace.Event.Int !pending_entries);
              ("requests", Svagc_trace.Event.Int !pending_count);
              ("coalesced", Svagc_trace.Event.Int !coalesced);
            ]
          "gc.swap_batch";
      pending := [];
      pending_count := 0;
      pending_entries := 0;
      coalesced := 0
    in
    List.iter
      (fun { Compact.src; dst; len; _ } ->
        (* The heap's own IfSwapAlign test, not [cfg.threshold_pages]:
           the paper's Algorithm 3 writes the threshold both as pages >= T
           (MoveObject) and |object| >= T*|PAGE| (IfSwapAlign), and only
           objects that passed the latter were placed page-aligned.
           [Svagc.collector] rejects a config whose threshold disagrees. *)
        if Heap.swap_sized heap ~size:len then begin
          assert (Addr.is_page_aligned src && Addr.is_page_aligned dst);
          let pages = Addr.pages_spanned len in
          let entry = { e_src = src; e_dst = dst; e_len = len; e_pages = pages } in
          incr pending_entries;
          let merged =
            match !pending with
            | (r, ep) :: rest ->
              let bytes = r.Swapva.pages * Addr.page_size in
              if r.Swapva.src + bytes = src && r.Swapva.dst + bytes = dst then begin
                let m = { r with Swapva.pages = r.Swapva.pages + pages } in
                if Swapva.ranges_overlap m then None
                else begin
                  Perf.bump perf Runs_coalesced 1;
                  incr coalesced;
                  Some ((m, entry :: ep) :: rest)
                end
              end
              else None
            | _ -> None
          in
          match merged with
          | Some pending' -> pending := pending'
          | None ->
            pending := ({ Swapva.src; dst; pages }, [ entry ]) :: !pending;
            incr pending_count;
            if !pending_count >= cfg.aggregation_batch then flush_pending ()
        end
        else begin
          flush_pending ();
          let cost_ns = Memmove.move ?measure_core ~cold:true aspace ~src ~dst ~len in
          Svagc_util.Vec.push out { Compact.cost_ns; swapped = false }
        end)
      entries;
    flush_pending ();
    Svagc_util.Vec.to_list out
  in
  { Compact.mover_name = "swapva"; prologue; move_entries; epilogue }
