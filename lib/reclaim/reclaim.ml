open Svagc_vmem
module Tracer = Svagc_trace.Tracer
module Addr_index = Svagc_util.Addr_index
module Vec = Svagc_util.Vec

(* Tracking-table key: (asid, vpn) packed into one immediate int, so the
   table hashes and compares an unboxed int instead of a heap-allocated
   tuple and the hot notification paths ([page_touched], [track]) allocate
   nothing per call.  40 bits of vpn (2^40 pages = 4 PiB of VA) under the
   asid leaves 22+ asid bits on 63-bit ints — both checked because a
   silent overlap would alias two pages' nodes. *)
let key_vpn_bits = 40

let page_key ~asid ~vpn =
  if vpn lsr key_vpn_bits <> 0 || asid lsr (Sys.int_size - 1 - key_vpn_bits) <> 0
  then invalid_arg "Reclaim.page_key: asid/vpn out of range";
  (asid lsl key_vpn_bits) lor vpn

(* Tracked pages are nodes of an arena of parallel arrays, named by int
   id, so the per-page paths chase no records and allocate nothing once
   the arrays have grown.  Ids 0 and 1 are the sentinels of the active
   and inactive LRU lists: circular, doubly linked through [prev]/[next],
   [next] of a sentinel being its most recently added page.  Every tenant
   also has one ring through [tprev]/[tnext] holding exactly its tracked
   pages, whose sentinel (another arena id) [ring] finds by asid; that
   ring is what [adopt_space] walks.  [tag] is the list a node is on —
   its sentinel id plus one, 0 for none — and [refd] its referenced bit.
   Freed ids chain through [next] and are reused LIFO. *)
let active = 0
let inactive = 1

type t = {
  machine : Machine.t;
  dev : Swap_tier.t;
  limit : int;
  gap : int;  (* hysteresis: each wake evicts down to [limit - gap] *)
  major_fault_ns : float;
  mutable prev : int array;
  mutable next : int array;
  mutable tprev : int array;
  mutable tnext : int array;
  mutable asid_of : int array;
  mutable vpn_of : int array;
  mutable refd : Bytes.t;
  mutable tag : Bytes.t;
  mutable free : int;  (* head of the freed-id chain, -1 when empty *)
  mutable high : int;  (* ids ever handed out *)
  size : int array;  (* by sentinel id: the LRU lists' lengths *)
  (* [page_key asid vpn] -> node id, for every page on either list. *)
  pages : int Addr_index.t;
  (* By asid: the tenant's ring sentinel (-1 before its first page) and
     the page table its pages live in ([no_pt] while the ring is
     empty). *)
  mutable ring : int array;
  mutable pts : Page_table.t array;
  shrink_ids : int Vec.t;  (* [shrink_asid]'s candidate snapshot *)
  mutable pending_ns : float;
  mutable in_kswapd : bool;
  cgroup : Cgroup.t option;
}

let no_pt = Page_table.create ()

let initial_ids = 64

(* Device attempts per transfer before a swap-out skips the page or a
   fault surfaces [EIO_swap]. *)
let io_attempts = 3

let create machine ~limit_frames ?dev ?cgroup () =
  if limit_frames <= 0 then
    invalid_arg "Reclaim.attach: limit_frames must be positive";
  let dev =
    match dev with Some d -> d | None -> Swap_tier.create machine ()
  in
  let self_linked () = Array.init initial_ids (fun i -> i) in
  {
    machine;
    dev;
    limit = limit_frames;
    gap = max 1 (limit_frames / 16);
    major_fault_ns = machine.Machine.cost.Cost_model.major_fault_ns;
    prev = self_linked ();
    next = self_linked ();
    tprev = self_linked ();
    tnext = self_linked ();
    asid_of = Array.make initial_ids (-1);
    vpn_of = Array.make initial_ids (-1);
    refd = Bytes.make initial_ids '\000';
    tag = Bytes.make initial_ids '\000';
    free = -1;
    high = 2;
    size = [| 0; 0 |];
    pages = Addr_index.create (-1);
    ring = Array.make initial_ids (-1);
    pts = Array.make initial_ids no_pt;
    shrink_ids = Vec.create ();
    pending_ns = 0.0;
    in_kswapd = false;
    cgroup;
  }

(* --- the node arena --- *)

let resize a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let extend_bytes b =
  let b' = Bytes.make (2 * Bytes.length b) '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let alloc_id t =
  if t.free >= 0 then begin
    let id = t.free in
    t.free <- t.next.(id);
    id
  end
  else begin
    let id = t.high in
    if id = Array.length t.next then begin
      t.prev <- resize t.prev (2 * id) (-1);
      t.next <- resize t.next (2 * id) (-1);
      t.tprev <- resize t.tprev (2 * id) (-1);
      t.tnext <- resize t.tnext (2 * id) (-1);
      t.asid_of <- resize t.asid_of (2 * id) (-1);
      t.vpn_of <- resize t.vpn_of (2 * id) (-1);
      t.refd <- extend_bytes t.refd;
      t.tag <- extend_bytes t.tag
    end;
    t.high <- id + 1;
    id
  end

let free_id t id =
  t.next.(id) <- t.free;
  t.free <- id

let referenced t id = Bytes.get t.refd id <> '\000'

let set_referenced t id b = Bytes.set t.refd id (if b then '\001' else '\000')

let list_of t id = Char.code (Bytes.get t.tag id) - 1

let lru_push_front t l id =
  let next = t.next in
  let first = next.(l) in
  t.prev.(id) <- l;
  next.(id) <- first;
  t.prev.(first) <- id;
  next.(l) <- id;
  Bytes.set t.tag id (Char.chr (l + 1));
  t.size.(l) <- t.size.(l) + 1

let lru_remove t id =
  let l = list_of t id in
  let prev = t.prev and next = t.next in
  next.(prev.(id)) <- next.(id);
  prev.(next.(id)) <- prev.(id);
  Bytes.set t.tag id '\000';
  t.size.(l) <- t.size.(l) - 1

(* Unlink and return the least recently added page; [l] must be
   non-empty. *)
let lru_pop_back t l =
  let id = t.prev.(l) in
  lru_remove t id;
  id

(* Room for [asid] in the asid-indexed arrays. *)
let ensure_asid t asid =
  let len = Array.length t.ring in
  if asid >= len then begin
    let len = Stdlib.max (2 * len) (asid + 1) in
    t.ring <- resize t.ring len (-1);
    t.pts <- resize t.pts len no_pt
  end

let charge t ns = t.pending_ns <- t.pending_ns +. ns

let drain_ns t =
  let ns = t.pending_ns in
  t.pending_ns <- 0.0;
  ns

(* Forget a node: its (asid, vpn) key leaves the tracking table, the node
   leaves its tenant's ring, its id is freed, and the tenant's resident
   count drops with it.  A tenant whose ring empties lets go of its page
   table, so an exited tenant's table can be collected. *)
let untrack t id =
  let asid = t.asid_of.(id) in
  Addr_index.remove t.pages (page_key ~asid ~vpn:t.vpn_of.(id));
  let tp = t.tprev.(id) and tn = t.tnext.(id) in
  t.tnext.(tp) <- tn;
  t.tprev.(tn) <- tp;
  if tn = tp then t.pts.(asid) <- no_pt;
  free_id t id;
  match t.cgroup with
  | Some cg -> Cgroup.uncharge cg ~asid
  | None -> ()

let drop_node t id =
  if list_of t id >= 0 then lru_remove t id;
  untrack t id

(* One swap-device transfer with a bounded retry against the machine's
   fault plane; each attempt (including failed ones) pays [cost_ns].  A
   top-level recursion, so a transfer allocates no closure. *)
let rec swap_io_attempts t inj ~va ~cost_ns attempt =
  charge t cost_ns;
  let site = Svagc_fault.Fault_spec.Swap_io in
  if not (Svagc_fault.Injector.fire inj ~site ~va) then true
  else begin
    Perf.bump t.machine.Machine.perf Swap_io_errors 1;
    attempt + 1 < io_attempts
    && swap_io_attempts t inj ~va ~cost_ns (attempt + 1)
  end

let swap_io_ok t ~va ~cost_ns =
  match t.machine.Machine.fault with
  | None ->
    charge t cost_ns;
    true
  | Some inj -> swap_io_attempts t inj ~va ~cost_ns 0

(* Evict one tracked page: move its frame's payload to a fresh swap slot
   (freeing the frame), leave a swapped PTE behind and scrub every TLB.
   Returns false when the eviction was skipped (stale node or device
   EIO).  The node must be on no list. *)
let swap_out t id =
  let perf = t.machine.Machine.perf in
  let asid = t.asid_of.(id) and vpn = t.vpn_of.(id) in
  let pt = t.pts.(asid) in
  let va = vpn * Addr.page_size in
  let pte = Page_table.get_pte pt va in
  if not (Pte.is_present pte) then begin
    (* Stale node: the entry at this va was swapped or remapped under us
       (compaction churn); tracking catches up at the next resync. *)
    untrack t id;
    false
  end
  else if not (swap_io_ok t ~va ~cost_ns:(Swap_tier.out_ns t.dev)) then begin
    (* Device refused every attempt: skip this page, give it another
       round through the active list. *)
    set_referenced t id true;
    lru_push_front t active id;
    false
  end
  else begin
    let frame = Pte.frame_exn pte in
    let slot = Swap_tier.alloc_slot t.dev in
    Swap_tier.write t.dev ~slot
      (Phys_mem.take_frame t.machine.Machine.phys frame);
    Page_table.set_pte pt va (Pte.make_swapped ~slot);
    (* The frame is gone: invalidate any cached translation everywhere
       (the eviction-side half of shootdown discipline). *)
    Machine.flush_page_everywhere t.machine ~asid ~vpn;
    Perf.bump perf Tlb_flush_page 1;
    charge t t.machine.Machine.cost.Cost_model.tlb_flush_page_ns;
    Perf.bump perf Pages_swapped_out 1;
    untrack t id;
    if Tracer.tracing () then
      Tracer.instant ~cat:"reclaim"
        ~args:
          [
            ("va", Svagc_trace.Event.Int va);
            ("asid", Svagc_trace.Event.Int asid);
            ("slot", Svagc_trace.Event.Int slot);
          ]
        "reclaim.swap_out";
    true
  end

(* The kswapd loop: when residency (plus any frame the caller is about to
   take, [incoming]) exceeds the limit, age the active list into the
   inactive list and evict unreferenced inactive pages until residency
   drops below the low watermark.  Second-chance: a referenced inactive
   page is rescued back to the active head instead of evicted.  The scan
   budget (every page can be aged once and considered once, plus slack)
   guarantees termination even when eviction makes no progress. *)
let tracked_pages t = t.size.(active) + t.size.(inactive)

let balance_incoming t ~incoming =
  let perf = t.machine.Machine.perf in
  let phys = t.machine.Machine.phys in
  if (not t.in_kswapd) && Phys_mem.frames_in_use phys + incoming > t.limit
  then begin
    t.in_kswapd <- true;
    Perf.bump perf Kswapd_wakes 1;
    let tracing = Tracer.tracing () in
    if tracing then Tracer.span_begin ~cat:"reclaim" "reclaim.kswapd";
    let ns_before = t.pending_ns in
    let scans_before = Perf.get perf Reclaim_scans in
    let target = max 0 (t.limit - t.gap) in
    let budget = ref ((2 * tracked_pages t) + 64) in
    (* Soft-limit-first victim selection: while some tenant is over its
       soft limit, pages of under-soft tenants are rescued to the active
       head instead of evicted (like a second chance, without needing a
       touch), so the over-soft tenants' cold pages surface first.  The
       rotation allowance (one full pass over the lists, refreshed per
       wake) bounds the detour — once spent, or once no tenant is over
       soft, plain second-chance LRU resumes. *)
    let rotations =
      ref
        (match t.cgroup with
        | Some cg when Cgroup.any_over_soft cg -> tracked_pages t
        | _ -> 0)
    in
    while
      Phys_mem.frames_in_use phys + incoming > target
      && !budget > 0
      && tracked_pages t > 0
    do
      decr budget;
      Perf.bump perf Reclaim_scans 1;
      if t.size.(inactive) > 0 then begin
        let id = lru_pop_back t inactive in
        if referenced t id then begin
          (* Second chance: touched while inactive. *)
          set_referenced t id false;
          lru_push_front t active id
        end
        else if
          !rotations > 0
          &&
          match t.cgroup with
          | Some cg ->
            Cgroup.any_over_soft cg
            && not (Cgroup.prefer cg ~asid:t.asid_of.(id))
          | None -> false
        then begin
          decr rotations;
          lru_push_front t active id
        end
        else ignore (swap_out t id)
      end
      else begin
        (* Refill (the loop guard makes the active list non-empty): age
           one page from the active tail, clearing its referenced bit so a
           further touch is needed to rescue it. *)
        let id = lru_pop_back t active in
        set_referenced t id false;
        lru_push_front t inactive id
      end
    done;
    if tracing then
      Tracer.span_end
        ~args:
          [
            ( "scans",
              Svagc_trace.Event.Int
                (Perf.get perf Reclaim_scans - scans_before) );
            ( "resident_frames",
              Svagc_trace.Event.Int (Phys_mem.frames_in_use phys) );
          ]
        ~dur_ns:(t.pending_ns -. ns_before) ();
    t.in_kswapd <- false
  end

let balance t = balance_incoming t ~incoming:0

let track t ~pt ~asid ~va =
  let vpn = Addr.page_number va in
  let key = page_key ~asid ~vpn in
  let id = Addr_index.find_or_filler t.pages key in
  if id >= 0 then set_referenced t id true
  else begin
    ensure_asid t asid;
    let owner = t.pts.(asid) in
    if owner == no_pt then t.pts.(asid) <- pt
    else if owner != pt then
      invalid_arg
        (Printf.sprintf
           "Reclaim.track: asid %d already tracks another page table" asid);
    if t.ring.(asid) < 0 then begin
      let s = alloc_id t in
      t.tprev.(s) <- s;
      t.tnext.(s) <- s;
      t.ring.(asid) <- s
    end;
    let id = alloc_id t in
    t.asid_of.(id) <- asid;
    t.vpn_of.(id) <- vpn;
    set_referenced t id true;
    Addr_index.replace t.pages key id;
    let s = t.ring.(asid) in
    let first = t.tnext.(s) in
    t.tprev.(id) <- s;
    t.tnext.(id) <- first;
    t.tprev.(first) <- id;
    t.tnext.(s) <- id;
    (match t.cgroup with Some cg -> Cgroup.charge cg ~asid | None -> ());
    lru_push_front t active id
  end

(* One pass of [shrink_asid] over list [l]: snapshot the tenant's
   candidates coldest first (back to front), then evict them while the
   quota lasts.  A candidate a previous eviction moved off the list is
   skipped.  Returns the running eviction count. *)
let shrink_pass t l ~asid ~excess ~protect ~evicted =
  let ids = t.shrink_ids in
  Vec.clear ids;
  let id = ref t.prev.(l) in
  while !id <> l do
    if t.asid_of.(!id) = asid && t.vpn_of.(!id) <> protect then
      Vec.push ids !id;
    id := t.prev.(!id)
  done;
  let evicted = ref evicted in
  for i = 0 to Vec.length ids - 1 do
    let id = Vec.get ids i in
    if !evicted < excess && list_of t id >= 0 then begin
      lru_remove t id;
      if swap_out t id then incr evicted
    end
  done;
  !evicted

(* Evict up to [excess] resident pages of one tenant, coldest first
   (inactive back-to-front, then active back-to-front), regardless of the
   global watermark — the hard-limit enforcement path.  [protect] (a vpn,
   or -1 for none) shields the page the caller is in the middle of
   producing (a fresh mapping or a just-faulted page), whose eviction
   would break the caller's postcondition. *)
let shrink_asid t ~asid ~excess ~protect =
  if excess > 0 then begin
    let evicted = shrink_pass t inactive ~asid ~excess ~protect ~evicted:0 in
    if evicted < excess then
      ignore (shrink_pass t active ~asid ~excess ~protect ~evicted)
  end

let enforce t ~asid ~protect =
  match t.cgroup with
  | None -> ()
  | Some cg ->
    let excess = Cgroup.excess cg ~asid in
    if excess > 0 then shrink_asid t ~asid ~excess ~protect

let page_mapped t ~pt ~asid ~va =
  track t ~pt ~asid ~va;
  balance t;
  enforce t ~asid ~protect:(Addr.page_number va)

let page_unmapped t ~asid ~va ~pte =
  if Pte.is_swapped pte then Swap_tier.free_slot t.dev (Pte.swap_slot_exn pte);
  let id =
    Addr_index.find_or_filler t.pages
      (page_key ~asid ~vpn:(Addr.page_number va))
  in
  if id >= 0 then drop_node t id

(* The hottest notification: every simulated heap access lands here. *)
let page_touched t ~asid ~va =
  let id =
    Addr_index.find_or_filler t.pages
      (page_key ~asid ~vpn:(Addr.page_number va))
  in
  if id >= 0 then set_referenced t id true

let adopt_space t ~pt ~asid =
  (* Drop stale nodes first (tracked but no longer present), walking only
     this tenant's ring; drops commute, so ring order reaches no
     outcome ... *)
  if asid >= 0 && asid < Array.length t.ring && t.ring.(asid) >= 0 then begin
    let s = t.ring.(asid) in
    let id = ref t.tnext.(s) in
    while !id <> s do
      let cur = !id in
      id := t.tnext.(cur);
      let pte = Page_table.get_pte pt (t.vpn_of.(cur) * Addr.page_size) in
      if not (Pte.is_present pte) then drop_node t cur
    done
  end;
  (* ... then track present pages we do not know about, in deterministic
     page-table walk order. *)
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame:_ ->
      if Addr_index.find_or_filler t.pages (page_key ~asid ~vpn) < 0 then
        track t ~pt ~asid ~va:(vpn * Addr.page_size));
  (* The resync may have revealed pages this tenant acquired since the
     last notification; settle its hard limit before handing back. *)
  enforce t ~asid ~protect:(-1)

let fault_in t ~pt ~asid ~va =
  let pte = Page_table.get_pte pt va in
  if Pte.is_swapped pte then begin
    let perf = t.machine.Machine.perf in
    Perf.bump perf Major_faults 1;
    charge t t.major_fault_ns;
    (* Make room BEFORE taking the frame: the incoming page is not on any
       LRU list yet, so kswapd cannot choose it — which is what makes the
       caller's fault-then-retry loop terminate. *)
    balance_incoming t ~incoming:1;
    let slot = Pte.swap_slot_exn pte in
    if not (swap_io_ok t ~va ~cost_ns:(Swap_tier.in_ns t.dev ~slot)) then
      raise
        (Svagc_fault.Kernel_error.Fault (Svagc_fault.Kernel_error.EIO_swap { va }));
    let phys = t.machine.Machine.phys in
    (* Fail before the payload leaves the slot, so a full frame pool
       leaves the page swapped and its slot intact. *)
    if Phys_mem.frames_in_use phys >= Phys_mem.capacity_frames phys then
      raise Phys_mem.Out_of_frames;
    (* The slot's payload becomes the frame's; a zero page stays lazy. *)
    let frame = Phys_mem.alloc_frame_with phys (Swap_tier.take t.dev ~slot) in
    Page_table.set_pte pt va (Pte.make ~frame);
    Perf.bump perf Pages_swapped_in 1;
    track t ~pt ~asid ~va;
    enforce t ~asid ~protect:(Addr.page_number va);
    if Tracer.tracing () then
      Tracer.instant ~cat:"reclaim"
        ~args:
          [
            ("va", Svagc_trace.Event.Int va);
            ("asid", Svagc_trace.Event.Int asid);
            ("slot", Svagc_trace.Event.Int slot);
            ("frame", Svagc_trace.Event.Int frame);
          ]
        "reclaim.fault_in"
  end

let lru_audit t =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let tracked = Addr_index.length t.pages in
  let is_tracked_node id =
    match page_key ~asid:t.asid_of.(id) ~vpn:t.vpn_of.(id) with
    | key -> Addr_index.find_or_filler t.pages key = id
    | exception Invalid_argument _ -> false
  in
  (* Walks stop after [size + 1] nodes, or at a link leaving the arena,
     so a broken ring cannot hang the audit. *)
  let walk ~head ~size step visit =
    let n = ref 0 and cur = ref (step head) in
    while !cur <> head && !n <= size && !cur >= 0 && !cur < t.high do
      visit !cur;
      incr n;
      cur := step !cur
    done;
    !n
  in
  let audit name l =
    let size = t.size.(l) in
    let check id =
      if list_of t id <> l then
        fail "%s list: asid %d vpn %d is marked as on another list" name
          t.asid_of.(id) t.vpn_of.(id);
      if not (is_tracked_node id) then
        fail "%s list: asid %d vpn %d is not the tracked node for its key"
          name t.asid_of.(id) t.vpn_of.(id)
    in
    let fwd = walk ~head:l ~size (fun id -> t.next.(id)) check in
    let bwd = walk ~head:l ~size (fun id -> t.prev.(id)) ignore in
    if fwd <> size || bwd <> size then
      fail "%s list: size %d, but %d nodes forward and %d backward" name size
        fwd bwd
  in
  audit "active" active;
  audit "inactive" inactive;
  if tracked_pages t <> tracked then
    fail "the lists hold %d pages but %d are tracked" (tracked_pages t) tracked;
  (* Each tenant ring holds only that tenant's tracked nodes, and the
     rings together hold every tracked page once. *)
  let in_rings = ref 0 in
  Array.iteri
    (fun asid s ->
      if s >= 0 then begin
        let check id =
          if t.asid_of.(id) <> asid then
            fail "asid %d ring: asid %d vpn %d belongs to another tenant" asid
              t.asid_of.(id) t.vpn_of.(id);
          if not (is_tracked_node id) then
            fail "asid %d ring: vpn %d is not the tracked node for its key"
              asid t.vpn_of.(id)
        in
        let fwd = walk ~head:s ~size:tracked (fun id -> t.tnext.(id)) check in
        let bwd = walk ~head:s ~size:tracked (fun id -> t.tprev.(id)) ignore in
        if fwd <> bwd then
          fail "asid %d ring: %d nodes forward but %d backward" asid fwd bwd;
        in_rings := !in_rings + fwd
      end)
    t.ring;
  if !in_rings <> tracked then
    fail "the tenant rings hold %d pages but %d are tracked" !in_rings tracked;
  List.rev !errs

let attach machine ~limit_frames ?dev ?cgroup () =
  let t = create machine ~limit_frames ?dev ?cgroup () in
  let dev = t.dev in
  machine.Machine.reclaim <-
    Some
      {
        Machine.ri_page_mapped =
          (fun ~pt ~asid ~va -> page_mapped t ~pt ~asid ~va);
        ri_page_unmapped =
          (fun ~asid ~va ~pte -> page_unmapped t ~asid ~va ~pte);
        ri_page_touched = (fun ~asid ~va -> page_touched t ~asid ~va);
        ri_fault_in = (fun ~pt ~asid ~va -> fault_in t ~pt ~asid ~va);
        ri_adopt = (fun ~pt ~asid -> adopt_space t ~pt ~asid);
        ri_slot_payload = (fun ~slot -> Swap_tier.peek dev ~slot);
        ri_slot_allocated = (fun ~slot -> Swap_tier.allocated dev ~slot);
        ri_slots_in_use = (fun () -> Swap_tier.slots_in_use dev);
        ri_drain_ns = (fun () -> drain_ns t);
        ri_cgroup_stats =
          (fun () ->
            match cgroup with None -> [] | Some cg -> Cgroup.stats cg);
        ri_tier_stats = (fun () -> Swap_tier.stats dev);
        ri_lru_audit = (fun () -> lru_audit t);
      };
  t
