open Svagc_vmem
module Heap = Svagc_heap.Heap
module Process = Svagc_kernel.Process
module Gc_stats = Svagc_gc.Gc_stats
module Work_steal = Svagc_par.Work_steal
module Tracer = Svagc_trace.Tracer
module Event = Svagc_trace.Event

type finding = {
  invariant : string;
  detail : string;
}

let finding invariant fmt =
  Format.kasprintf (fun detail -> { invariant; detail }) fmt

let pp_finding ppf f = Format.fprintf ppf "[%s] %s" f.invariant f.detail

type report = {
  label : string;
  oracles_run : int;
  items_checked : int;
  machines_observed : int;
  shootdowns_observed : int;
  findings : finding list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "check %s: %d oracle passes over %d items (%d machines, %d shootdowns): %s"
    r.label r.oracles_run r.items_checked r.machines_observed
    r.shootdowns_observed
    (match List.length r.findings with
    | 0 -> "all invariants hold"
    | n -> Printf.sprintf "%d FINDINGS" n);
  List.iter (fun f -> Format.fprintf ppf "@.  %a" pp_finding f) r.findings

(* Findings accumulate via a [law] helper so every oracle body reads as a
   list of named invariants; [items] counts how many were evaluated. *)
type acc = {
  mutable items : int;
  mutable rev : finding list;
}

let acc () = { items = 0; rev = [] }

let law a invariant ok fmt =
  a.items <- a.items + 1;
  Format.kasprintf
    (fun detail -> if not ok then a.rev <- { invariant; detail } :: a.rev)
    fmt

let result a = (a.items, List.rev a.rev)

(* --- TLB coherence --- *)

let tlb_coherence machine ~tables =
  let a = acc () in
  Array.iter
    (fun core ->
      Tlb.iter_valid core.Machine.tlb (fun ~asid ~vpn ~frame ~stamp:_ ->
          match List.assoc_opt asid tables with
          | None -> ()
          | Some pt -> (
            a.items <- a.items + 1;
            match Page_table.translate pt (vpn * Addr.page_size) with
            | Some (live, _) when live = frame -> ()
            | Some (live, _) ->
              a.rev <-
                finding "tlb-coherence"
                  "core %d caches stale frame %d for asid %d vpn %d (page \
                   table maps frame %d)"
                  core.Machine.core_id frame asid vpn live
                :: a.rev
            | None ->
              a.rev <-
                finding "tlb-coherence"
                  "core %d caches frame %d for asid %d vpn %d, which is no \
                   longer mapped"
                  core.Machine.core_id frame asid vpn
                :: a.rev)))
    machine.Machine.cores;
  result a

let shootdown_flushed machine ~asid =
  let a = acc () in
  Array.iter
    (fun core ->
      Tlb.iter_valid core.Machine.tlb (fun ~asid:entry_asid ~vpn ~frame ~stamp:_ ->
          a.items <- a.items + 1;
          if entry_asid = asid then
            a.rev <-
              finding "shootdown-flush"
                "core %d still caches asid %d vpn %d (frame %d) after a \
                 completed shootdown for that asid"
                core.Machine.core_id asid vpn frame
              :: a.rev))
    machine.Machine.cores;
  result a

(* --- counter conservation laws --- *)

let counter_laws machine =
  let a = acc () in
  let p = machine.Machine.perf in
  let ncores = machine.Machine.ncores in
  List.iter
    (fun (name, v) ->
      law a "counter-law" (v >= 0) "%s = %d must be non-negative" name v)
    (Perf.to_assoc p);
  (* Eq. 2 bookkeeping: every IPI belongs to exactly one broadcast of
     [ncores - 1] sends, plus one resend per fault-injected loss.  Holds
     because [Machine.ipi_broadcast_cost] is the only send path. *)
  law a "counter-law"
    (Perf.get p Ipis_sent
    = (Perf.get p Shootdown_broadcasts * (ncores - 1)) + Perf.get p Ipis_lost)
    "ipis_sent = %d but shootdown_broadcasts * (ncores-1) + ipis_lost = %d * %d + %d = %d"
    (Perf.get p Ipis_sent)
    (Perf.get p Shootdown_broadcasts)
    (ncores - 1) (Perf.get p Ipis_lost)
    ((Perf.get p Shootdown_broadcasts * (ncores - 1)) + Perf.get p Ipis_lost);
  law a "counter-law"
    (Perf.get p Ipis_lost <= Perf.get p Ipis_sent)
    "ipis_lost = %d exceeds ipis_sent = %d" (Perf.get p Ipis_lost)
    (Perf.get p Ipis_sent);
  law a "counter-law"
    (Perf.get p Swapva_calls <= Perf.get p Syscalls)
    "swapva_calls = %d exceeds syscalls = %d" (Perf.get p Swapva_calls)
    (Perf.get p Syscalls);
  law a "counter-law"
    (Perf.get p Bytes_remapped mod Addr.page_size = 0)
    "bytes_remapped = %d is not page-sized" (Perf.get p Bytes_remapped);
  (* Each machine-wide flush walks every core's TLB, so it contributes
     [ncores] local-flush events. *)
  law a "counter-law"
    (Perf.get p Tlb_flush_local >= ncores * Perf.get p Tlb_flush_all)
    "tlb_flush_local = %d < ncores * tlb_flush_all = %d * %d"
    (Perf.get p Tlb_flush_local) ncores (Perf.get p Tlb_flush_all);
  (* A PMD leaf swap exchanges one PTE-pointer pair. *)
  law a "counter-law"
    (Perf.get p Ptes_swapped >= 2 * Perf.get p Pmd_leaf_swaps)
    "ptes_swapped = %d < 2 * pmd_leaf_swaps = %d" (Perf.get p Ptes_swapped)
    (2 * Perf.get p Pmd_leaf_swaps);
  (* Reclaim accounting: a page can only come back in after going out, and
     every swap-in rode a major fault (faults are counted on entry, so a
     fault that then failed with EIO still counts). *)
  law a "counter-law"
    (Perf.get p Pages_swapped_in <= Perf.get p Pages_swapped_out)
    "pages_swapped_in = %d exceeds pages_swapped_out = %d"
    (Perf.get p Pages_swapped_in) (Perf.get p Pages_swapped_out);
  law a "counter-law"
    (Perf.get p Major_faults >= Perf.get p Pages_swapped_in)
    "major_faults = %d < pages_swapped_in = %d" (Perf.get p Major_faults)
    (Perf.get p Pages_swapped_in);
  (* Tiered-device accounting: a promotion is a fault served from the far
     tier, so it rides a swap-in; a demotion moves a slot some swap-out
     created, and a slot demotes at most once per lifetime (promotion
     frees it), so demotions never outnumber swap-outs. *)
  law a "counter-law"
    (Perf.get p Tier_promotions <= Perf.get p Pages_swapped_in)
    "tier_promotions = %d exceeds pages_swapped_in = %d"
    (Perf.get p Tier_promotions) (Perf.get p Pages_swapped_in);
  law a "counter-law"
    (Perf.get p Tier_demotions <= Perf.get p Pages_swapped_out)
    "tier_demotions = %d exceeds pages_swapped_out = %d"
    (Perf.get p Tier_demotions) (Perf.get p Pages_swapped_out);
  (* Co-run accounting: a queued step is run or dropped at most once,
     and only after being queued. *)
  law a "counter-law"
    (Perf.get p Sched_dispatched + Perf.get p Sched_cancelled
    <= Perf.get p Sched_scheduled)
    "sched_dispatched + sched_cancelled = %d + %d exceeds sched_scheduled = \
     %d"
    (Perf.get p Sched_dispatched)
    (Perf.get p Sched_cancelled)
    (Perf.get p Sched_scheduled);
  result a

(* --- page-table presence bitsets --- *)

(* The flat SwapVA engine trusts each leaf's presence bitset instead of
   reading PTEs; this recomputes every bitset from the PTE words.  Any
   disagreement means some exchange path violated its
   mappedness-preservation contract. *)
let bitset_laws ~tables =
  let a = acc () in
  List.iter
    (fun (asid, pt) ->
      let bad = Page_table.bitset_violations pt in
      law a "pte-bitset" (bad = 0)
        "asid %d: %d leaves' presence bitsets disagree with their PTE words"
        asid bad)
    tables;
  result a

(* --- reclaim conservation laws --- *)

(* Run only while a reclaim plane is attached.  [tables] must cover every
   address space of the machine (shadow mode registers them at creation),
   because the slot-leak and frame-conservation laws are global sums. *)
let reclaim_laws machine ~tables =
  let a = acc () in
  match machine.Machine.reclaim with
  | None -> result a
  | Some r ->
    let phys = machine.Machine.phys in
    let slot_owner = Hashtbl.create 64 in
    let frame_seen = Hashtbl.create 64 in
    let swapped_total = ref 0 in
    let present_total = ref 0 in
    (* Every materialized payload, once per frame or slot, for the alias
       law below.  An allocated slot no PTE references is reclaim-leak's
       finding, so reaching slots through the page tables covers them
       all. *)
    let payloads = ref [] in
    List.iter
      (fun (asid, pt) ->
        Page_table.iter_mapped pt ~f:(fun ~vpn ~frame ->
            incr present_total;
            if not (Hashtbl.mem frame_seen frame) then begin
              Hashtbl.add frame_seen frame ();
              match Phys_mem.payload phys frame with
              | p ->
                if Phys_mem.lines p > 0 then
                  payloads := ("frame", frame, p) :: !payloads
              | exception Invalid_argument _ ->
                law a "reclaim-conservation" false
                  "asid %d vpn %d maps frame %d, which is not in use" asid
                  vpn frame
            end);
        Page_table.iter_swapped pt ~f:(fun ~vpn ~slot ->
            incr swapped_total;
            let allocated = r.Machine.ri_slot_allocated ~slot in
            law a "reclaim-slot" allocated
              "asid %d vpn %d references swap slot %d, which is not allocated"
              asid vpn slot;
            match Hashtbl.find_opt slot_owner slot with
            | Some (asid0, vpn0) ->
              law a "reclaim-slot" false
                "swap slot %d referenced by both asid %d vpn %d and asid %d \
                 vpn %d"
                slot asid0 vpn0 asid vpn
            | None -> (
              a.items <- a.items + 1;
              Hashtbl.add slot_owner slot (asid, vpn);
              if allocated then begin
                let p = r.Machine.ri_slot_payload ~slot in
                if Phys_mem.lines p > 0 then
                  payloads := ("slot", slot, p) :: !payloads
              end)))
      tables;
    (* Aliasing: payloads move between frames and slots by ownership, so
       no two owners may hold one payload. *)
    let owners = Array.of_list !payloads in
    let last = Phys_mem.last_alias (Array.map (fun (_, _, p) -> p) owners) in
    Array.iteri
      (fun i (kind, id, _) ->
        let j = last.(i) in
        if j = i then a.items <- a.items + 1
        else begin
          let kind', id', _ = owners.(j) in
          law a "reclaim-alias" false
            "%s %d and %s %d share one payload" kind id kind' id'
        end)
      owners;
    (* Slot leak: the device holds exactly one slot per swapped PTE. *)
    law a "reclaim-leak"
      (r.Machine.ri_slots_in_use () = !swapped_total)
      "swap device holds %d slots but the page tables reference %d"
      (r.Machine.ri_slots_in_use ())
      !swapped_total;
    (* Tier conservation: demotion and promotion move payloads between
       the device's tiers but never create or leak a slot. *)
    let near, far = r.Machine.ri_tier_stats () in
    law a "tier-conservation"
      (near + far = r.Machine.ri_slots_in_use ())
      "near (%d) + far (%d) slots disagree with the device total %d" near far
      (r.Machine.ri_slots_in_use ());
    (* Conservation: every resident frame is owned by exactly one present
       PTE, so resident + swapped accounts for every mapped page. *)
    law a "reclaim-conservation"
      (Phys_mem.frames_in_use machine.Machine.phys = !present_total)
      "machine has %d resident frames but the page tables hold %d present \
       PTEs"
      (Phys_mem.frames_in_use machine.Machine.phys)
      !present_total;
    law a "reclaim-watermark"
      (Phys_mem.frames_in_use machine.Machine.phys
      <= Phys_mem.capacity_frames machine.Machine.phys)
      "resident frames %d exceed physical capacity %d"
      (Phys_mem.frames_in_use machine.Machine.phys)
      (Phys_mem.capacity_frames machine.Machine.phys);
    (* The tracking arena: both LRU lists and every tenant ring are sound
       rings over exactly the tracked pages. *)
    (match r.Machine.ri_lru_audit () with
    | [] -> law a "reclaim-lru" true "sound"
    | errs ->
      List.iter (fun e -> law a "reclaim-lru" false "%s" e) errs);
    result a

(* --- fleet cgroup conservation laws --- *)

(* Run only when the reclaim plane carries a cgroup accounting plane
   ([ri_cgroup_stats] non-empty); a fleet-free machine skips the pass
   entirely, keeping non-fleet check reports identical.  [tables] must
   cover every address space, as for {!reclaim_laws}. *)
let cgroup_laws machine ~tables =
  let a = acc () in
  match machine.Machine.reclaim with
  | None -> result a
  | Some r ->
    let stats = r.Machine.ri_cgroup_stats () in
    if stats = [] then result a
    else begin
      (* Resident pages per tenant, recounted from the page tables. *)
      let present = Hashtbl.create 64 in
      List.iter
        (fun (asid, pt) ->
          Page_table.iter_mapped pt ~f:(fun ~vpn:_ ~frame:_ ->
              Hashtbl.replace present asid
                (1 + Option.value ~default:0 (Hashtbl.find_opt present asid))))
        tables;
      let total_resident = ref 0 in
      List.iter
        (fun (asid, resident, soft, hard) ->
          total_resident := !total_resident + resident;
          law a "cgroup-limits"
            (0 <= soft && soft <= hard)
            "asid %d has soft = %d > hard = %d" asid soft hard;
          law a "cgroup-resident"
            (resident <= hard)
            "asid %d holds %d resident pages above its hard limit %d" asid
            resident hard;
          (* The charge/uncharge plane must agree with the page tables for
             every tenant the oracle can see. *)
          match List.assoc_opt asid tables with
          | None -> ()
          | Some _ ->
            let truth =
              Option.value ~default:0 (Hashtbl.find_opt present asid)
            in
            law a "cgroup-accounting"
              (resident = truth)
              "asid %d charged for %d resident pages but its page table \
               holds %d present PTEs"
              asid resident truth)
        stats;
      (* Pool conservation: every resident frame is charged to exactly one
         tenant.  Sound only when every space with present PTEs belongs to
         a registered tenant; implicit tenant creation on first charge
         guarantees that for fleet runs. *)
      let in_stats asid =
        List.exists (fun (a0, _, _, _) -> a0 = asid) stats
      in
      let covered =
        List.for_all
          (fun (asid, _) ->
            in_stats asid
            || Option.value ~default:0 (Hashtbl.find_opt present asid) = 0)
          tables
      in
      if covered then
        law a "cgroup-conservation"
          (!total_resident = Phys_mem.frames_in_use machine.Machine.phys)
          "tenants are charged for %d resident pages but the machine holds \
           %d frames"
          !total_resident
          (Phys_mem.frames_in_use machine.Machine.phys);
      result a
    end

(* --- GC cycle accounting --- *)

let cycle_laws ?(label = "gc") (c : Gc_stats.cycle) =
  let a = acc () in
  let phase name v =
    law a "cycle-law" (v >= 0.0) "%s: %s_ns = %g must be non-negative" label
      name v
  in
  phase "mark" c.Gc_stats.mark_ns;
  phase "forward" c.Gc_stats.forward_ns;
  phase "adjust" c.Gc_stats.adjust_ns;
  phase "compact" c.Gc_stats.compact_ns;
  phase "concurrent" c.Gc_stats.concurrent_ns;
  let count name v =
    law a "cycle-law" (v >= 0) "%s: %s = %d must be non-negative" label name v
  in
  count "live_objects" c.Gc_stats.live_objects;
  count "live_bytes" c.Gc_stats.live_bytes;
  count "reclaimed_bytes" c.Gc_stats.reclaimed_bytes;
  count "moved_objects" c.Gc_stats.moved_objects;
  count "bytes_copied" c.Gc_stats.bytes_copied;
  law a "cycle-law"
    (c.Gc_stats.swapped_objects >= 0
    && c.Gc_stats.swapped_objects <= c.Gc_stats.moved_objects)
    "%s: swapped_objects = %d outside [0, moved_objects = %d]" label
    c.Gc_stats.swapped_objects c.Gc_stats.moved_objects;
  law a "cycle-law"
    (c.Gc_stats.bytes_remapped >= 0
    && c.Gc_stats.bytes_remapped mod Addr.page_size = 0)
    "%s: bytes_remapped = %d is negative or not page-sized" label
    c.Gc_stats.bytes_remapped;
  law a "cycle-law"
    (c.Gc_stats.moved_objects > 0
    || (c.Gc_stats.bytes_copied = 0 && c.Gc_stats.bytes_remapped = 0))
    "%s: no object moved yet bytes_copied = %d, bytes_remapped = %d" label
    c.Gc_stats.bytes_copied c.Gc_stats.bytes_remapped;
  result a

(* --- heap audit --- *)

let heap_invariants ?(label = "heap") heap =
  let items = max 1 (Heap.object_count heap) in
  match Heap.audit heap with
  | Ok () -> (items, [])
  | Error lines ->
    (items, List.map (fun l -> finding "heap-audit" "%s: %s" label l) lines)

(* --- trace well-formedness --- *)

let trace_eps = 1e-3 (* ns; absorbs float addition noise only *)

let trace_wellformed tracer =
  let a = acc () in
  let events = Tracer.events tracer in
  let tracks = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      a.items <- a.items + 1;
      if not (Float.is_finite e.Event.ts && e.Event.ts >= 0.0) then
        a.rev <-
          finding "trace-timestamps" "event #%d %S has bad timestamp %g"
            e.Event.seq e.Event.name e.Event.ts
          :: a.rev;
      (match e.Event.kind with
      | Event.Span dur ->
        if not (Float.is_finite dur && dur >= 0.0) then
          a.rev <-
            finding "trace-timestamps" "span #%d %S has bad duration %g"
              e.Event.seq e.Event.name dur
            :: a.rev
      | Event.Instant -> ());
      let key = (e.Event.pid, e.Event.tid) in
      let spans, last_instant =
        match Hashtbl.find_opt tracks key with
        | Some t -> t
        | None -> ([], None)
      in
      let spans =
        if Event.is_span e then (e.Event.ts, Event.end_ts e) :: spans
        else spans
      in
      let last_instant =
        match e.Event.kind with
        | Event.Instant ->
          (match last_instant with
          | Some prev when e.Event.ts +. trace_eps < prev ->
            a.rev <-
              finding "trace-monotonicity"
                "instant #%d %S on track (%d,%d) at %g ns regresses below %g \
                 ns"
                e.Event.seq e.Event.name e.Event.pid e.Event.tid e.Event.ts
                prev
              :: a.rev
          | _ -> ());
          Some (Float.max e.Event.ts (Option.value last_instant ~default:0.0))
        | _ -> last_instant
      in
      Hashtbl.replace tracks key (spans, last_instant))
    events;
  (* Nesting: on one track, any two spans are disjoint or one contains the
     other.  Sweep the spans sorted by (begin asc, end desc) with a stack
     of enclosing end times. *)
  Hashtbl.iter
    (fun (pid, tid) (spans, _) ->
      let spans =
        List.sort
          (fun (b1, e1) (b2, e2) ->
            match compare b1 b2 with 0 -> compare e2 e1 | c -> c)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun (b, e) ->
          a.items <- a.items + 1;
          while
            match !stack with
            | top :: rest when top <= b +. trace_eps ->
              stack := rest;
              true
            | _ -> false
          do
            ()
          done;
          (match !stack with
          | top :: _ when e > top +. trace_eps ->
            a.rev <-
              finding "trace-nesting"
                "span [%g, %g] on track (%d,%d) straddles its enclosing \
                 span's end %g"
                b e pid tid top
              :: a.rev
          | _ -> ());
          stack := e :: !stack)
        spans)
    tracks;
  law a "trace-open-spans"
    (Tracer.open_spans tracer = 0)
    "%d spans left open" (Tracer.open_spans tracer);
  result a

(* --- work-steal scheduler oracle --- *)

let work_steal_oracle ?(threads = 4) ?(steal_ns = 2.0) ?(barrier_ns = 0.0)
    costs =
  let a = acc () in
  let n = Array.length costs in
  let executed = Array.make (max n 1) 0 in
  let stats =
    Work_steal.run ~threads ~steal_ns ~barrier_ns
      ~cost:(fun i -> costs.(i))
      ~execute:(fun i -> executed.(i) <- executed.(i) + 1)
      (Array.init n (fun i -> i))
  in
  for i = 0 to n - 1 do
    law a "work-steal" (executed.(i) = 1) "task %d executed %d times" i
      executed.(i)
  done;
  let total = Array.fold_left ( +. ) 0.0 costs in
  let eps = 1e-6 *. (1.0 +. Float.abs total) in
  law a "work-steal" (stats.Work_steal.tasks = n) "stats.tasks = %d, seeded %d"
    stats.Work_steal.tasks n;
  law a "work-steal"
    (stats.Work_steal.threads = threads)
    "stats.threads = %d, asked for %d" stats.Work_steal.threads threads;
  law a "work-steal"
    (Float.abs (stats.Work_steal.total_work_ns -. total) <= eps)
    "total_work_ns = %g but the seeded costs sum to %g"
    stats.Work_steal.total_work_ns total;
  law a "work-steal"
    (stats.Work_steal.steals >= 0)
    "negative steal count %d" stats.Work_steal.steals;
  if n = 0 then
    law a "work-steal"
      (stats.Work_steal.makespan_ns = 0.0 && stats.Work_steal.steals = 0)
      "empty schedule reports makespan %g and %d steals"
      stats.Work_steal.makespan_ns stats.Work_steal.steals
  else begin
    let max_cost = Array.fold_left Float.max 0.0 costs in
    let lower =
      Float.max max_cost (total /. float_of_int threads) +. barrier_ns
    in
    let upper =
      total
      +. (float_of_int stats.Work_steal.steals *. steal_ns)
      +. barrier_ns
    in
    law a "work-steal"
      (stats.Work_steal.makespan_ns +. eps >= lower)
      "makespan %g below the critical-path lower bound %g"
      stats.Work_steal.makespan_ns lower;
    law a "work-steal"
      (stats.Work_steal.makespan_ns <= upper +. eps)
      "makespan %g above the serial upper bound %g"
      stats.Work_steal.makespan_ns upper
  end;
  result a

(* --- domain safety: sharded sweeps never share a leaf --- *)

module Par_sweep = Svagc_par.Par_sweep

let domain_safety (r : Par_sweep.result) =
  let a = acc () in
  let s = r.Par_sweep.shards in
  let n = Array.length s in
  law a "domain-safety" (n > 0) "sweep result carries no shards";
  for i = 0 to n - 1 do
    let sh = s.(i) in
    law a "domain-safety"
      (sh.Par_sweep.ss_shard = i)
      "shard at index %d says it is shard %d (merge order broken)" i
      sh.Par_sweep.ss_shard;
    law a "domain-safety"
      (sh.Par_sweep.ss_leaf_lo <= sh.Par_sweep.ss_leaf_hi)
      "shard %d owns the inverted leaf range [%d, %d)" i
      sh.Par_sweep.ss_leaf_lo sh.Par_sweep.ss_leaf_hi;
    if i > 0 then
      (* Contiguous canonical partition: shard i starts exactly where
         shard i-1 ended, so no leaf has two owners and none is skipped. *)
      law a "domain-safety"
        (s.(i - 1).Par_sweep.ss_leaf_hi = sh.Par_sweep.ss_leaf_lo)
        "shards %d and %d share or skip leaves: [..., %d) then [%d, ...)"
        (i - 1) i
        s.(i - 1).Par_sweep.ss_leaf_hi
        sh.Par_sweep.ss_leaf_lo;
    law a "domain-safety"
      (sh.Par_sweep.ss_leaves <= sh.Par_sweep.ss_leaf_hi - sh.Par_sweep.ss_leaf_lo)
      "shard %d walked %d leaves but owns only %d" i sh.Par_sweep.ss_leaves
      (sh.Par_sweep.ss_leaf_hi - sh.Par_sweep.ss_leaf_lo)
  done;
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 s in
  law a "domain-safety"
    (r.Par_sweep.leaves = sum (fun sh -> sh.Par_sweep.ss_leaves))
    "merged leaf count %d <> shard sum %d" r.Par_sweep.leaves
    (sum (fun sh -> sh.Par_sweep.ss_leaves));
  law a "domain-safety"
    (r.Par_sweep.present = sum (fun sh -> sh.Par_sweep.ss_present))
    "merged present count %d <> shard sum %d" r.Par_sweep.present
    (sum (fun sh -> sh.Par_sweep.ss_present));
  law a "domain-safety"
    (r.Par_sweep.swapped = sum (fun sh -> sh.Par_sweep.ss_swapped))
    "merged swapped count %d <> shard sum %d" r.Par_sweep.swapped
    (sum (fun sh -> sh.Par_sweep.ss_swapped));
  let cks =
    Array.fold_left
      (fun acc sh -> Int64.add acc sh.Par_sweep.ss_checksum)
      0L s
  in
  law a "domain-safety"
    (r.Par_sweep.checksum = cks)
    "merged checksum %Ld <> shard sum %Ld" r.Par_sweep.checksum cks;
  let walk =
    Array.fold_left (fun acc sh -> acc +. sh.Par_sweep.ss_cost_ns) 0.0 s
  in
  law a "domain-safety"
    (Int64.bits_of_float r.Par_sweep.walk_ns = Int64.bits_of_float walk)
    "merged walk_ns %.17g is not the bit-exact left-to-right shard sum %.17g"
    r.Par_sweep.walk_ns walk;
  result a

(* --- shadow mode --- *)

(* One registered machine.  The machine itself is held weakly so check
   mode never keeps simulated frames alive; page tables (small leaf
   indexes) are held strongly because a TLB entry can outlive the moment we
   would otherwise re-discover its address space. *)
type mstate = {
  wmachine : Machine.t Weak.t;
  mutable tables : (int * Page_table.t) list;
}

type shadow = {
  label : string;
  mutable machines : mstate list;
  clocks : (string, float) Hashtbl.t;
  mutable oracles : int;
  mutable items : int;
  mutable findings_rev : finding list;
  mutable findings_count : int;
  mutable machines_seen : int;
  mutable shootdowns_seen : int;
}

let max_recorded_findings = 200

let shadow : shadow option ref = ref None

let enabled () = Option.is_some !shadow

let record s f =
  s.findings_count <- s.findings_count + 1;
  if s.findings_count <= max_recorded_findings then
    s.findings_rev <- f :: s.findings_rev

let fold s (items, findings) =
  s.oracles <- s.oracles + 1;
  s.items <- s.items + items;
  List.iter (record s) findings

let state_for s machine =
  let alive st =
    match Weak.get st.wmachine 0 with Some m -> m == machine | None -> false
  in
  match List.find_opt alive s.machines with
  | Some st -> st
  | None ->
    let wmachine = Weak.create 1 in
    Weak.set wmachine 0 (Some machine);
    let st = { wmachine; tables = [] } in
    s.machines <-
      st :: List.filter (fun st -> Weak.check st.wmachine 0) s.machines;
    st

let on_machine_created s machine =
  s.machines_seen <- s.machines_seen + 1;
  ignore (state_for s machine)

let on_aspace_created s aspace =
  let st = state_for s (Address_space.machine aspace) in
  st.tables <-
    (Address_space.asid aspace, Address_space.page_table aspace) :: st.tables

let on_shootdown s machine ~asid =
  s.shootdowns_seen <- s.shootdowns_seen + 1;
  let st = state_for s machine in
  fold s (shootdown_flushed machine ~asid);
  fold s (tlb_coherence machine ~tables:st.tables);
  fold s (counter_laws machine)

let enable ?(label = "shadow") () =
  if not (enabled ()) then begin
    let s =
      {
        label;
        machines = [];
        clocks = Hashtbl.create 64;
        oracles = 0;
        items = 0;
        findings_rev = [];
        findings_count = 0;
        machines_seen = 0;
        shootdowns_seen = 0;
      }
    in
    shadow := Some s;
    Machine.created_hook := Some (on_machine_created s);
    Address_space.created_hook := Some (on_aspace_created s);
    Machine.shootdown_hook :=
      Some (fun machine ~asid -> on_shootdown s machine ~asid)
  end

let disable () =
  match !shadow with
  | None -> None
  | Some s ->
    Machine.created_hook := None;
    Address_space.created_hook := None;
    Machine.shootdown_hook := None;
    shadow := None;
    let findings = List.rev s.findings_rev in
    let findings =
      if s.findings_count > max_recorded_findings then
        findings
        @ [
            finding "suppressed" "%d further findings not recorded"
              (s.findings_count - max_recorded_findings);
          ]
      else findings
    in
    Some
      {
        label = s.label;
        oracles_run = s.oracles;
        items_checked = s.items;
        machines_observed = s.machines_seen;
        shootdowns_observed = s.shootdowns_seen;
        findings;
      }

let observe_clock ~key ns =
  match !shadow with
  | None -> ()
  | Some s ->
    s.oracles <- s.oracles + 1;
    s.items <- s.items + 1;
    if not (Float.is_finite ns && ns >= 0.0) then
      record s (finding "clock-monotonicity" "clock %s reads bad value %g" key ns);
    (match Hashtbl.find_opt s.clocks key with
    | Some prev when ns < prev ->
      record s
        (finding "clock-monotonicity"
           "clock %s regressed from %g ns to %g ns" key prev ns)
    | _ -> ());
    Hashtbl.replace s.clocks key
      (match Hashtbl.find_opt s.clocks key with
      | Some prev -> Float.max prev ns
      | None -> ns)

let post_gc ?(label = "gc") heap cycle =
  match !shadow with
  | None -> ()
  | Some s ->
    let machine = Process.machine (Heap.proc heap) in
    let st = state_for s machine in
    fold s (cycle_laws ~label cycle);
    fold s (heap_invariants ~label heap);
    fold s (tlb_coherence machine ~tables:st.tables);
    fold s (counter_laws machine);
    fold s (bitset_laws ~tables:st.tables);
    (match machine.Machine.reclaim with
    | None -> ()
    | Some r ->
      fold s (reclaim_laws machine ~tables:st.tables);
      if r.Machine.ri_cgroup_stats () <> [] then
        fold s (cgroup_laws machine ~tables:st.tables))

let observe_tracer tracer =
  match !shadow with
  | None -> ()
  | Some s -> fold s (trace_wellformed tracer)
