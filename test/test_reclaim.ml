(* Tests for svagc_reclaim and its wiring: swap-device and address-space
   byte round-trips through swap-out/fault-in, payload ownership (a zero
   page stays lazy, a faulted-in page aliases no slot), LRU list
   soundness under random map/touch/fault/unmap, the SwapVA slot-exchange
   fast path (zero major faults) vs memmove's fault-everything-in slow
   path, the >= 5x reclaim gate at 1k/16k/64k pages, post-GC heap
   audits and conservation laws under 0.5 residency, determinism of the
   pressure experiment, the [swap] fault-injection
   site (typed EIO_swap after bounded retries), and rate-0 bit-identity
   of a [swap:p=0] clause. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Reclaim = Svagc_reclaim.Reclaim
module Swap_tier = Svagc_reclaim.Swap_tier
module Cgroup = Svagc_reclaim.Cgroup
module Fault_spec = Svagc_fault.Fault_spec
module Kernel_error = Svagc_fault.Kernel_error
module Config = Svagc_core.Config
module Jvm = Svagc_core.Jvm
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Exp_common = Svagc_experiments.Exp_common
module Exp_pressure = Svagc_experiments.Exp_pressure

let qtest ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let base = 1 lsl 32

(* --- Swap_tier slots --- *)

let tier ?near_slots () =
  Swap_tier.create
    (Machine.create ~ncores:2 ~phys_mib:64 Cost_model.xeon_6130)
    ?near_slots ()

(* A two-slot near tier, so longer lists also round-trip payloads that
   were demoted to the far tier on the way. *)
let prop_swap_tier_round_trip =
  qtest "swap device round-trips any payload"
    QCheck.(list (option (string_of_size (QCheck.Gen.return Addr.page_size))))
    (fun payloads ->
      let dev = tier ~near_slots:2 () in
      let slots =
        List.map
          (fun payload ->
            let slot = Swap_tier.alloc_slot dev in
            Swap_tier.write dev ~slot
              (match payload with
              | Some s -> Helpers.payload_of_string s
              | None -> Phys_mem.zero);
            (slot, payload))
          payloads
      in
      List.for_all
        (fun (slot, payload) ->
          Helpers.string_of_payload (Swap_tier.take dev ~slot)
          = Option.value payload ~default:(String.make Addr.page_size '\000'))
        slots
      && Swap_tier.slots_in_use dev = 0
      && Swap_tier.stats dev = (0, 0))

let test_swap_tier_slot_reuse () =
  let dev = tier () in
  let a = Swap_tier.alloc_slot dev in
  let b = Swap_tier.alloc_slot dev in
  Swap_tier.free_slot dev a;
  (* A freed id is reused before the frontier advances, most recently
     freed first. *)
  Alcotest.(check int) "freed slot reused" a (Swap_tier.alloc_slot dev);
  Alcotest.(check bool) "b still allocated" true
    (Swap_tier.allocated dev ~slot:b);
  Alcotest.(check int) "two in use" 2 (Swap_tier.slots_in_use dev);
  (* Not lowest-numbered first: with 0 and 2 freed, in that order, 2
     comes back. *)
  let dev = tier () in
  let s0 = Swap_tier.alloc_slot dev in
  let _s1 = Swap_tier.alloc_slot dev in
  let s2 = Swap_tier.alloc_slot dev in
  Swap_tier.free_slot dev s0;
  Swap_tier.free_slot dev s2;
  Alcotest.(check (list int)) "handed out in order" [ 0; 2 ] [ s0; s2 ];
  Alcotest.(check int) "most recently freed first" 2
    (Swap_tier.alloc_slot dev)

(* A demotion re-tags the id: the far slot holds the very payload the
   near slot was given. *)
let test_demotion_moves_no_payload () =
  let dev = tier ~near_slots:1 () in
  let buf = Helpers.payload_of_string (String.make Addr.page_size 'd') in
  let slot = Swap_tier.alloc_slot dev in
  Swap_tier.write dev ~slot buf;
  let same () = Swap_tier.peek dev ~slot == buf in
  Alcotest.(check bool) "near slot holds the payload" true (same ());
  ignore (Swap_tier.alloc_slot dev);
  Alcotest.(check (pair int int)) "the first slot went far" (1, 1)
    (Swap_tier.stats dev);
  Alcotest.(check bool) "far slot holds the same payload" true (same ());
  Alcotest.(check bool) "take hands it back" true (Swap_tier.take dev ~slot == buf)

(* --- Address-space round trips under pressure --- *)

(* [2 * pages] mapped, machine capped at [pages] resident frames; the
   reclaim plane is attached before mapping so kswapd evicts the cold
   half as mapping crosses the watermark.  Physical memory holds both
   ranges plus slack for page tables. *)
let pressured_fixture ~pages =
  let phys_mib = (2 * pages / 256) + 64 in
  let machine = Machine.create ~ncores:4 ~phys_mib Cost_model.xeon_6130 in
  let r = Reclaim.attach machine ~limit_frames:pages () in
  let proc = Process.create machine in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:(2 * pages);
  (machine, proc, aspace, r)

(* A slot's payload as the oracle reads it: the device's own payload,
   through the machine's installed plane. *)
let slot_payload machine ~slot =
  match machine.Machine.reclaim with
  | Some ri -> ri.Machine.ri_slot_payload ~slot
  | None -> Alcotest.fail "reclaim not attached"

let slot_bytes machine ~slot =
  let p = slot_payload machine ~slot in
  if Phys_mem.lines p = 0 then None else Some (Helpers.string_of_payload p)

let count_swapped aspace =
  Page_table.swapped_pages (Address_space.page_table aspace)

let first_swapped_va aspace =
  let found = ref None in
  Page_table.iter_swapped (Address_space.page_table aspace)
    ~f:(fun ~vpn ~slot:_ ->
      if !found = None then found := Some (vpn * Addr.page_size));
  match !found with
  | Some va -> va
  | None -> Alcotest.fail "no page is swapped out"

(* --- Payload ownership across swap-out / fault-in --- *)

let test_zero_page_faults_in_lazy () =
  let pages = 8 in
  let machine, _, aspace, r = pressured_fixture ~pages in
  (* Nothing wrote these pages, so every slot carries a zero page. *)
  let va = first_swapped_va aspace in
  Reclaim.fault_in r
    ~pt:(Address_space.page_table aspace)
    ~asid:(Address_space.asid aspace) ~va;
  match Address_space.translate aspace ~va with
  | Some (frame, _) ->
    Alcotest.(check bool) "the faulted-in zero page is not materialized" true
      (Phys_mem.lines (Phys_mem.payload machine.Machine.phys frame) = 0)
  | None -> Alcotest.fail "fault_in left the page swapped"

let test_fault_in_owns_its_payload () =
  let pages = 8 in
  let machine, _, aspace, r = pressured_fixture ~pages in
  let pt = Address_space.page_table aspace in
  (* Distinct bytes per page; the fills fault pages in and out, so every
     slot ends up holding real data. *)
  for i = 0 to (2 * pages) - 1 do
    Address_space.fill aspace
      ~va:(base + (i * Addr.page_size))
      ~len:Addr.page_size
      (Char.chr (Char.code 'A' + i))
  done;
  let va = first_swapped_va aspace in
  let taken = Pte.swap_slot_exn (Page_table.get_pte pt va) in
  let others = ref [] in
  Page_table.iter_swapped pt ~f:(fun ~vpn:_ ~slot ->
      if slot <> taken then
        others :=
          (slot, slot_bytes machine ~slot)
          :: !others);
  Alcotest.(check bool) "other slots hold data" true
    (List.exists (fun (_, b) -> Option.is_some b) !others);
  Reclaim.fault_in r ~pt ~asid:(Address_space.asid aspace) ~va;
  Address_space.fill aspace ~va ~len:Addr.page_size 'z';
  List.iter
    (fun (slot, before) ->
      Alcotest.(check (option string))
        (Printf.sprintf "slot %d unchanged by the write" slot)
        before
        (slot_bytes machine ~slot))
    !others

let test_alias_law_flags_shared_buffer () =
  let pages = 8 in
  let machine, _, aspace, _ = pressured_fixture ~pages in
  let pt = Address_space.page_table aspace in
  let tables = [ (Address_space.asid aspace, pt) ] in
  for i = 0 to (2 * pages) - 1 do
    Address_space.fill aspace
      ~va:(base + (i * Addr.page_size))
      ~len:Addr.page_size
      (Char.chr (Char.code 'A' + i))
  done;
  let invariants () =
    List.map
      (fun f -> f.Svagc_check.Check.invariant)
      (snd (Svagc_check.Check.reclaim_laws machine ~tables))
  in
  Alcotest.(check (list string)) "sound before" [] (invariants ());
  let slot =
    Pte.swap_slot_exn (Page_table.get_pte pt (first_swapped_va aspace))
  in
  let shared = slot_payload machine ~slot in
  let before = slot_bytes machine ~slot in
  (* Map the slot's own payload at a fresh page as well: one payload, two
     owners. *)
  let frame = Phys_mem.alloc_frame_with machine.Machine.phys shared in
  Page_table.set_pte pt (base + (2 * pages * Addr.page_size)) (Pte.make ~frame);
  Alcotest.(check (list string)) "the alias is found" [ "reclaim-alias" ]
    (invariants ());
  Alcotest.(check (option string)) "the pass leaves the payload as found"
    before (slot_bytes machine ~slot)

(* --- LRU structure --- *)

(* Ops name a tenant (0-2) and its page(s).  [Adopt] is a compaction's
   aftermath: exchange two mapped pages' PTEs with SwapVA (present for
   swapped leaves tracking stale), then run the post-GC resync. *)
type lru_op =
  | Map of int * int
  | Touch of int * int
  | Fault of int * int
  | Unmap of int * int
  | Adopt of int * int * int

let lru_tenants = 3

let lru_op_gen =
  QCheck.Gen.(
    let tenant = int_bound (lru_tenants - 1) and page = int_bound 23 in
    oneof
      [
        map2 (fun t i -> Map (t, i)) tenant page;
        map2 (fun t i -> Touch (t, i)) tenant page;
        map2 (fun t i -> Fault (t, i)) tenant page;
        map2 (fun t i -> Unmap (t, i)) tenant page;
        map3 (fun t i j -> Adopt (t, i, j)) tenant page page;
      ])

let pp_lru_op = function
  | Map (t, i) -> Printf.sprintf "map %d:%d" t i
  | Touch (t, i) -> Printf.sprintf "touch %d:%d" t i
  | Fault (t, i) -> Printf.sprintf "fault %d:%d" t i
  | Unmap (t, i) -> Printf.sprintf "unmap %d:%d" t i
  | Adopt (t, i, j) -> Printf.sprintf "exchange %d:%d,%d + adopt" t i j

(* Three tenants on one reclaimer, with a cgroup plane: tenant 0 is
   capped at soft 3 / hard 6 pages, tenant 1 at soft 2 / hard 5,
   tenant 2 unlimited, so soft-first victim choice and hard-limit shrinks
   both run.  After every op the audit (LRU lists and tenant rings) must
   be clean, and each tenant's charge must equal its tracked pages — with
   tracking in sync after every op, that is its present pages. *)
let prop_lru_audit =
  qtest "LRU lists stay sound under map/touch/fault/unmap"
    (QCheck.make
       ~print:QCheck.Print.(list pp_lru_op)
       QCheck.Gen.(list_size (int_range 1 120) lru_op_gen))
    (fun ops ->
      let machine = Machine.create ~ncores:2 ~phys_mib:64 Cost_model.xeon_6130 in
      let cgroup = Cgroup.create () in
      let r = Reclaim.attach machine ~limit_frames:8 ~cgroup () in
      let procs = Array.init lru_tenants (fun _ -> Process.create machine) in
      let aspace t = Process.aspace procs.(t) in
      let asid t = Address_space.asid (aspace t) in
      let pt t = Address_space.page_table (aspace t) in
      Cgroup.set_limits cgroup ~asid:(asid 0) ~soft:3 ~hard:6;
      Cgroup.set_limits cgroup ~asid:(asid 1) ~soft:2 ~hard:5;
      let va i = base + (i * Addr.page_size) in
      let mapped t i = Address_space.is_mapped (aspace t) ~va:(va i) in
      let charges_in_step t =
        Cgroup.resident cgroup ~asid:(asid t) = Page_table.mapped_pages (pt t)
      in
      List.for_all
        (fun op ->
          (match op with
          | Map (t, i) ->
            if not (mapped t i) then
              Address_space.map_range (aspace t) ~va:(va i) ~pages:1
          | Touch (t, i) ->
            if mapped t i then
              ignore (Address_space.read_u8 (aspace t) ~va:(va i))
          | Fault (t, i) -> Reclaim.fault_in r ~pt:(pt t) ~asid:(asid t) ~va:(va i)
          | Unmap (t, i) ->
            Address_space.unmap_range (aspace t) ~va:(va i) ~pages:1
          | Adopt (t, i, j) ->
            if i <> j && mapped t i && mapped t j then
              ignore
                (Swapva.swap procs.(t) ~opts:Swapva.default_opts ~src:(va i)
                   ~dst:(va j) ~pages:1);
            Reclaim.adopt_space r ~pt:(pt t) ~asid:(asid t));
          match Reclaim.lru_audit r with
          | [] ->
            (* Every resident frame is a tracked page, charged to its
               tenant. *)
            Reclaim.tracked_pages r
            = Phys_mem.frames_in_use machine.Machine.phys
            && List.for_all charges_in_step (List.init lru_tenants Fun.id)
            || QCheck.Test.fail_reportf "after %s: charges out of step"
                 (pp_lru_op op)
          | errs ->
            QCheck.Test.fail_reportf "after %s: %s" (pp_lru_op op)
              (String.concat "; " errs))
        ops)

let prop_swap_out_fault_in_round_trip =
  qtest ~count:20 "bytes survive swap-out then demand fault-in"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let pages = 16 in
      let machine = Machine.create ~ncores:4 ~phys_mib:64 Cost_model.xeon_6130 in
      let proc = Process.create machine in
      let aspace = Process.aspace proc in
      Address_space.map_range aspace ~va:base ~pages;
      let rng = Svagc_util.Rng.create ~seed in
      let payload i =
        Bytes.init 256 (fun j -> Char.chr ((i + j + Svagc_util.Rng.int rng 251) land 0xff))
      in
      let payloads = List.init pages payload in
      List.iteri
        (fun i src ->
          Address_space.write_bytes aspace ~va:(base + (i * Addr.page_size)) ~src)
        payloads;
      (* Attach with room for half the pages: adoption + balance evicts. *)
      let r = Reclaim.attach machine ~limit_frames:(pages / 2) () in
      Reclaim.adopt_space r ~pt:(Address_space.page_table aspace)
        ~asid:(Address_space.asid aspace);
      Reclaim.balance r;
      if count_swapped aspace = 0 then
        QCheck.Test.fail_report "balance evicted nothing";
      (* read_bytes demand-faults every swapped page back in. *)
      List.for_all
        (fun (i, src) ->
          let back =
            Address_space.read_bytes aspace
              ~va:(base + (i * Addr.page_size))
              ~len:(Bytes.length src)
          in
          Bytes.equal back src)
        (List.mapi (fun i p -> (i, p)) payloads)
      && Perf.get machine.Machine.perf Major_faults > 0)

(* --- The headline: SwapVA slot exchange vs memmove fault-in --- *)

let test_swapva_slot_exchange_no_faults () =
  let pages = 64 in
  let machine, proc, aspace, _ = pressured_fixture ~pages in
  let perf = machine.Machine.perf in
  Alcotest.(check bool) "half the range is swapped out" true
    (count_swapped aspace >= pages / 2);
  (* Peek-based checksums never fault, so they can witness the exchange. *)
  let len = pages * Addr.page_size in
  let lo_sum = Address_space.checksum aspace ~va:base ~len in
  let hi_sum = Address_space.checksum aspace ~va:(base + len) ~len in
  let faults0 = Perf.get perf Major_faults in
  let swapin0 = Perf.get perf Pages_swapped_in in
  ignore
    (Swapva.swap proc ~opts:Swapva.default_opts ~src:base ~dst:(base + len)
       ~pages);
  Alcotest.(check int) "no major faults" faults0 (Perf.get perf Major_faults);
  Alcotest.(check int) "no swap-ins" swapin0 (Perf.get perf Pages_swapped_in);
  Alcotest.(check int64) "low half now holds the high bytes" hi_sum
    (Address_space.checksum aspace ~va:base ~len);
  Alcotest.(check int64) "high half now holds the low bytes" lo_sum
    (Address_space.checksum aspace ~va:(base + len) ~len)

let test_memmove_faults_in () =
  let pages = 64 in
  let machine, _, aspace, _ = pressured_fixture ~pages in
  let perf = machine.Machine.perf in
  let faults0 = Perf.get perf Major_faults in
  let len = pages * Addr.page_size in
  ignore (Memmove.move ~streams:1 aspace ~src:base ~dst:(base + len) ~len);
  Alcotest.(check bool) "memmove demand-faulted the swapped source" true
    (Perf.get perf Major_faults > faults0);
  Alcotest.(check bool) "swap-ins happened" true (Perf.get perf Pages_swapped_in > 0)

(* The memory-pressure gate (Figs. 10-11): at 0.5 residency, SwapVA's
   slot exchange must be >= 5x cheaper than memmove-with-faults, each
   side's simulated cost counted with the reclaim work it left to drain.
   Separate fixtures: memmove's fault-ins destroy the half-swapped state
   the SwapVA side must also start from. *)
let test_reclaim_gate ~pages () =
  let len = pages * Addr.page_size in
  let drained f =
    let _, proc, aspace, r = pressured_fixture ~pages in
    ignore (Reclaim.drain_ns r);
    let ns = f proc aspace in
    ns +. Reclaim.drain_ns r
  in
  let swapva =
    drained (fun proc _ ->
        Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false
          { Swapva.src = base; dst = base + len; pages })
  in
  let memmove =
    drained (fun _ aspace ->
        Memmove.move ~streams:1 aspace ~src:base ~dst:(base + len) ~len)
  in
  if not (swapva > 0.0 && memmove /. swapva >= 5.0) then
    Alcotest.failf "%d pages: SwapVA %.0f ns vs memmove %.0f ns, under 5x" pages
      swapva memmove

(* --- Frame-to-frame memmove vs the staged reference --- *)

(* One memmove case: which pages are written whole and which store a
   few lines, a seed for the window, then a few moves [(src_off, dst_off,
   len)] in both directions.  About a third of the moves are page-aligned
   runs of 1-4 pages, the shape LISP2 gives swap-sized objects. *)
let copy_window_pages = 12

let copy_case_gen =
  let window = copy_window_pages * Addr.page_size in
  QCheck.Gen.(
    let bytes =
      int_range 1 (4 * Addr.page_size) >>= fun len ->
      triple (int_bound (window - len)) (int_bound (window - len)) (return len)
    in
    let pages =
      int_range 1 4 >>= fun n ->
      let page = map (fun p -> p * Addr.page_size) (int_bound (copy_window_pages - n)) in
      triple page page (return (n * Addr.page_size))
    in
    let mask = int_bound ((1 lsl copy_window_pages) - 1) in
    quad mask mask (int_bound 10_000)
      (list_size (int_range 1 4) (frequency [ (2, bytes); (1, pages) ])))

let pp_copy_case (written, sparse, seed, moves) =
  Printf.sprintf "written=%#x sparse=%#x seed=%d moves=[%s]" written sparse seed
    (String.concat "; "
       (List.map (fun (s, d, l) -> Printf.sprintf "%d->%d len %d" s d l) moves))

(* A machine capped at 5 resident frames whose 12-page window is partly
   swapped out before any move: mapping past the cap evicts, and the
   writes to the pages set in [written] (every byte) or [sparse] (one to
   four 128-byte lines) fault pages in and out again.  The other pages
   stay lazily zero. *)
let pressured_window ~written ~sparse ~seed =
  let machine = Machine.create ~ncores:2 ~phys_mib:64 Cost_model.xeon_6130 in
  let r = Reclaim.attach machine ~limit_frames:5 () in
  let aspace = Process.aspace (Process.create machine) in
  Address_space.map_range aspace ~va:base ~pages:copy_window_pages;
  let rng = Svagc_util.Rng.create ~seed in
  let random_bytes n =
    Bytes.init n (fun _ -> Char.chr (1 + Svagc_util.Rng.int rng 255))
  in
  for p = 0 to copy_window_pages - 1 do
    let va = base + (p * Addr.page_size) in
    if written land (1 lsl p) <> 0 then
      Address_space.write_bytes aspace ~va ~src:(random_bytes Addr.page_size)
    else if sparse land (1 lsl p) <> 0 then
      for _ = 0 to Svagc_util.Rng.int rng 4 do
        Address_space.write_bytes aspace
          ~va:(va + (128 * Svagc_util.Rng.int rng 32))
          ~src:(random_bytes 128)
      done
  done;
  (machine, r, aspace)

let reclaim_counters machine =
  List.map
    (fun c -> Perf.get machine.Machine.perf c)
    [ Perf.Major_faults; Pages_swapped_in; Pages_swapped_out; Reclaim_scans;
      Kswapd_wakes ]

(* [Memmove.move] copies frame to frame; the reference stages the whole
   source through a buffer, as memmove did before.  Both must leave the
   same bytes, make the same demand faults and evictions, and drain the
   same reclaim cost.  Runs a fixed-seed batch of generated cases and
   also proves that some case reads a source page from its swap slot: a
   destination fault-in evicted a source page the first pass had
   resolved. *)
let test_memmove_matches_staged_reference () =
  let slot_reads = ref 0 in
  let check_case ((written, sparse, seed, moves) as case) =
    let ma, ra, a = pressured_window ~written ~sparse ~seed in
    let mb, rb, b = pressured_window ~written ~sparse ~seed in
    let counting = ref false in
    (match ma.Machine.reclaim with
    | Some ri ->
      ma.Machine.reclaim <-
        Some
          {
            ri with
            Machine.ri_slot_payload =
              (fun ~slot ->
                if !counting then incr slot_reads;
                ri.Machine.ri_slot_payload ~slot);
          }
    | None -> Alcotest.fail "reclaim not attached");
    let window = copy_window_pages * Addr.page_size in
    List.iteri
      (fun i (src_off, dst_off, len) ->
        let what = Printf.sprintf "%s, move %d" (pp_copy_case case) i in
        let src = base + src_off and dst = base + dst_off in
        counting := true;
        let ns_a = Memmove.move ~streams:1 a ~src ~dst ~len in
        counting := false;
        Address_space.write_bytes b ~va:dst
          ~src:(Address_space.read_bytes b ~va:src ~len);
        let ns_b = Memmove.cost_ns mb ~streams:1 ~len +. Reclaim.drain_ns rb in
        Alcotest.(check string) ("bytes: " ^ what)
          (Bytes.to_string (Address_space.peek_bytes b ~va:base ~len:window))
          (Bytes.to_string (Address_space.peek_bytes a ~va:base ~len:window));
        Alcotest.(check (list int)) ("reclaim counters: " ^ what)
          (reclaim_counters mb) (reclaim_counters ma);
        Alcotest.(check int64) ("reclaim ns: " ^ what)
          (Int64.bits_of_float ns_b) (Int64.bits_of_float ns_a);
        Alcotest.(check (list string)) ("LRU audit: " ^ what) []
          (Reclaim.lru_audit ra @ Reclaim.lru_audit rb))
      moves
  in
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 150 do
    check_case (QCheck.Gen.generate1 ~rand copy_case_gen)
  done;
  Alcotest.(check bool) "some destination fault-in evicted a source page"
    true (!slot_reads > 0)

(* --- GC under pressure --- *)

let pressured_gc_run ?fault_spec ?(residency = 0.5) () =
  (* Pass 1: unlimited footprint; pass 2: capped at [residency] of it. *)
  let config =
    match fault_spec with
    | None -> Config.default
    | Some s ->
      { Config.default with Config.fault_spec = s; fault_seed = 7 }
  in
  let run limit_frames =
    let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
    (match limit_frames with
    | Some limit_frames ->
      ignore (Reclaim.attach machine ~limit_frames ())
    | None -> ());
    let workload = Svagc_workloads.Spec.find "Sigverify" in
    let jvm =
      Runner.make_jvm ~heap_factor:1.2 ~machine
        ~collector_of:(Exp_common.collector_of ~config Exp_common.Svagc)
        workload
    in
    let rng = Svagc_util.Rng.create ~seed:42 in
    let stepper = workload.Workload.setup jvm rng in
    for _ = 1 to 20 do
      stepper ()
    done;
    ignore (Jvm.run_gc jvm);
    (machine, jvm)
  in
  let machine, _ = run None in
  let peak = Phys_mem.frames_in_use machine.Machine.phys in
  run (Some (max 1 (int_of_float (residency *. float_of_int peak))))

let test_heap_audit_under_pressure () =
  let machine, jvm = pressured_gc_run () in
  Alcotest.(check bool) "pressure was real" true
    (Perf.get machine.Machine.perf Pages_swapped_out > 0);
  match Svagc_heap.Heap.audit (Jvm.heap jvm) with
  | Ok () -> ()
  | Error ps ->
    Alcotest.failf "heap audit failed under 0.5 residency:\n  %s"
      (String.concat "\n  " ps)

let test_conservation_laws_under_pressure () =
  let machine, jvm = pressured_gc_run () in
  let aspace = Process.aspace (Jvm.proc jvm) in
  let tables =
    [ (Address_space.asid aspace, Address_space.page_table aspace) ]
  in
  let items, findings = Svagc_check.Check.reclaim_laws machine ~tables in
  Alcotest.(check bool) "laws actually evaluated" true (items > 0);
  match findings with
  | [] -> ()
  | fs ->
    Alcotest.failf "reclaim laws violated:\n  %s"
      (String.concat "\n  "
         (List.map (fun f -> Format.asprintf "%a" Svagc_check.Check.pp_finding f) fs))

(* --- exp pressure --- *)

let test_exp_pressure_deterministic () =
  let a = Exp_pressure.sweep ~quick:true in
  let b = Exp_pressure.sweep ~quick:true in
  Alcotest.(check int) "same grid" (List.length a) (List.length b);
  List.iter2
    (fun (p : Exp_pressure.point) (q : Exp_pressure.point) ->
      Alcotest.(check int64) "gc_ns bits"
        (Int64.bits_of_float p.Exp_pressure.gc_ns)
        (Int64.bits_of_float q.Exp_pressure.gc_ns);
      Alcotest.(check bool) "identical point" true (p = q))
    a b

let test_exp_pressure_headline () =
  let points = Exp_pressure.sweep ~quick:true in
  let find kind residency =
    match
      List.find_opt
        (fun (p : Exp_pressure.point) ->
          p.Exp_pressure.kind == kind && p.Exp_pressure.residency = residency)
        points
    with
    | Some p -> p
    | None -> Alcotest.fail "missing sweep point"
  in
  let sva_full = find Exp_common.Svagc 1.0 in
  let sva_half = find Exp_common.Svagc 0.5 in
  let mm_full = find Exp_common.Lisp2_memmove 1.0 in
  let mm_half = find Exp_common.Lisp2_memmove 0.5 in
  (* SwapVA compaction cost stays within noise of its unlimited baseline;
     the memmove collector pays for faulting the swapped fraction in. *)
  Alcotest.(check bool) "SwapVA GC time flat under pressure" true
    (sva_half.Exp_pressure.gc_ns < sva_full.Exp_pressure.gc_ns *. 1.5);
  Alcotest.(check bool) "memmove GC time grows under pressure" true
    (mm_half.Exp_pressure.gc_ns > mm_full.Exp_pressure.gc_ns *. 2.0);
  Alcotest.(check bool) "memmove faults dwarf SwapVA faults" true
    (mm_half.Exp_pressure.major_faults
    > 10 * (sva_half.Exp_pressure.major_faults + 1))

(* --- swap fault site --- *)

let test_swap_spec_round_trip () =
  let t =
    match Fault_spec.parse "swap:p=0.25,pte:every=8" with
    | Ok t -> t
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  (match t with
  | [ s; _ ] ->
    Alcotest.(check bool) "swap site" true (s.Fault_spec.site = Fault_spec.Swap_io)
  | _ -> Alcotest.fail "expected two clauses");
  let printed = Fault_spec.to_string t in
  match Fault_spec.parse printed with
  | Ok t' -> Alcotest.(check bool) ("round trip via " ^ printed) true (t = t')
  | Error m -> Alcotest.failf "reparse %S failed: %s" printed m

let test_eio_swap_after_bounded_retries () =
  let pages = 8 in
  let machine = Machine.create ~ncores:2 ~phys_mib:64 Cost_model.xeon_6130 in
  let r = Reclaim.attach machine ~limit_frames:pages () in
  let proc = Process.create machine in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:(2 * pages);
  Alcotest.(check bool) "some pages swapped" true (count_swapped aspace > 0);
  (* Arm a certain-failure swap device only now, so the evictions above
     succeeded and the fault-in below must exhaust its retries. *)
  (match Fault_spec.parse "swap:p=1" with
  | Ok spec -> machine.Machine.fault <- Some (Svagc_fault.Injector.create spec ~seed:3)
  | Error m -> Alcotest.failf "spec: %s" m);
  let va = first_swapped_va aspace in
  (* The call must terminate (bounded retries, bounded kswapd scan budget
     — under p=1 eviction attempts fail too) and surface the typed error. *)
  (match
     Reclaim.fault_in r ~pt:(Address_space.page_table aspace)
       ~asid:(Address_space.asid aspace) ~va
   with
  | () -> Alcotest.fail "fault_in succeeded under swap:p=1"
  | exception Kernel_error.Fault (Kernel_error.EIO_swap { va = fva }) ->
    Alcotest.(check int) "typed error names the faulting va" va fva);
  Alcotest.(check bool) "device errors were counted" true
    (Perf.get machine.Machine.perf Swap_io_errors >= 3);
  Alcotest.(check bool) "the page is still swapped (slot not leaked)" true
    (Pte.is_swapped (Page_table.get_pte (Address_space.page_table aspace) va))

let test_swap_rate0_bit_identical () =
  let zero_spec =
    match Fault_spec.parse "swap:p=0" with
    | Ok s -> s
    | Error m -> failwith m
  in
  let machine_a, jvm_a = pressured_gc_run () in
  let machine_b, jvm_b = pressured_gc_run ~fault_spec:zero_spec () in
  Alcotest.(check int64) "gc_ns bits"
    (Int64.bits_of_float (Jvm.gc_ns jvm_a))
    (Int64.bits_of_float (Jvm.gc_ns jvm_b));
  Alcotest.(check int64) "app_ns bits"
    (Int64.bits_of_float (Jvm.app_ns jvm_a))
    (Int64.bits_of_float (Jvm.app_ns jvm_b));
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) ("counter " ^ name) a b)
    (Perf.to_assoc machine_a.Machine.perf)
    (Perf.to_assoc machine_b.Machine.perf)

let () =
  Alcotest.run "svagc_reclaim"
    [
      ( "swap_tier",
        [
          prop_swap_tier_round_trip;
          Alcotest.test_case "slot reuse" `Quick test_swap_tier_slot_reuse;
          Alcotest.test_case "demotion moves no payload" `Quick
            test_demotion_moves_no_payload;
        ] );
      ( "round_trip",
        [
          prop_swap_out_fault_in_round_trip;
          Alcotest.test_case "zero page faults in lazily" `Quick
            test_zero_page_faults_in_lazy;
          Alcotest.test_case "faulted-in page owns its payload" `Quick
            test_fault_in_owns_its_payload;
          Alcotest.test_case "alias law flags a shared buffer" `Quick
            test_alias_law_flags_shared_buffer;
        ] );
      ("lru", [ prop_lru_audit ]);
      ( "fast_path",
        [
          Alcotest.test_case "SwapVA exchanges slots without faulting" `Quick
            test_swapva_slot_exchange_no_faults;
          Alcotest.test_case "memmove faults both sides in" `Quick
            test_memmove_faults_in;
          Alcotest.test_case "memmove matches the staged reference" `Quick
            test_memmove_matches_staged_reference;
        ] );
      ( "reclaim_gate",
        List.map
          (fun pages ->
            Alcotest.test_case
              (Printf.sprintf "SwapVA >= 5x memmove at %d pages" pages)
              `Slow (test_reclaim_gate ~pages))
          [ 1024; 16384; 65536 ] );
      ( "gc_under_pressure",
        [
          Alcotest.test_case "heap audit at 0.5 residency" `Slow
            test_heap_audit_under_pressure;
          Alcotest.test_case "conservation laws" `Slow
            test_conservation_laws_under_pressure;
        ] );
      ( "exp_pressure",
        [
          Alcotest.test_case "deterministic across two runs" `Slow
            test_exp_pressure_deterministic;
          Alcotest.test_case "headline shape" `Slow test_exp_pressure_headline;
        ] );
      ( "swap_faults",
        [
          Alcotest.test_case "grammar round trip" `Quick test_swap_spec_round_trip;
          Alcotest.test_case "EIO_swap after bounded retries" `Quick
            test_eio_swap_after_bounded_retries;
          Alcotest.test_case "rate 0 bit-identical" `Slow
            test_swap_rate0_bit_identical;
        ] );
    ]
