open Svagc_vmem

(* A float-only record stores its field flat, so [acc.ns <- acc.ns +. c]
   allocates nothing; a float field of the mixed record [t] would box on
   every store. *)
type acc = { mutable ns : float }

type t = {
  machine : Machine.t;
  pt : Page_table.t;
  pmd_caching : bool;
  (* Two-entry cache keyed by the PMD region ([Addr.pmd_number]): one
     slot per swap stream so alternating src/dst accesses both hit.
     Kept as four flat mutable fields (region ints + leaf pointers, -1 =
     empty) instead of [(int * array) option] slots: probing and rotating
     are then pure int/pointer stores with no option or tuple allocation
     per page. *)
  mutable r0 : int;
  mutable l0 : Pte.value array;
  mutable r1 : int;
  mutable l1 : Pte.value array;
  acc : acc;
}

let create machine pt ~pmd_caching =
  let empty = Page_table.(leaf_ptes no_leaf) in
  { machine; pt; pmd_caching; r0 = -1; l0 = empty; r1 = -1; l1 = empty;
    acc = { ns = 0.0 } }

let cost_ns t = t.acc.ns

let add_cost t c = t.acc.ns <- t.acc.ns +. c

let unmapped va =
  raise
    (Svagc_fault.Kernel_error.Fault
       (Svagc_fault.Kernel_error.EFAULT_unmapped { va }))

let check_mapped ?(fault = None) pt ~va ~pages =
  let ps = Addr.page_size in
  let leaves = ref 0 and cursor = ref va and remaining = ref pages in
  while !remaining > 0 do
    let leaf = Page_table.leaf_at pt !cursor in
    if leaf == Page_table.no_leaf then unmapped !cursor;
    let start = Addr.pte_index !cursor in
    let len = min !remaining (Addr.entries_per_table - start) in
    (match fault with
    | None -> (
      match Page_table.leaf_first_unmapped leaf ~lo:start ~hi:(start + len) with
      | -1 -> ()
      | bad -> unmapped (!cursor + ((bad - start) * ps)))
    | Some inj ->
      let ptes = Page_table.leaf_ptes leaf in
      for i = start to start + len - 1 do
        let page_va = !cursor + ((i - start) * ps) in
        if
          Array.unsafe_get ptes i = Pte.none
          || Svagc_fault.Injector.fire inj
               ~site:Svagc_fault.Fault_spec.Pte_resolve ~va:page_va
        then unmapped page_va
      done);
    incr leaves;
    cursor := !cursor + (len * ps);
    remaining := !remaining - len
  done;
  !leaves

(* 0 / 1 = hit in that slot, -1 = miss.  Newest slot first. *)
let cache_find t region =
  if t.r0 = region then 0 else if t.r1 = region then 1 else -1

let get_pte t va =
  let cost = t.machine.Machine.cost in
  let perf = t.machine.Machine.perf in
  let region = Addr.pmd_number va in
  let slot = if t.pmd_caching then cache_find t region else -1 in
  if slot >= 0 then begin
    Perf.bump perf Pmd_cache_hits 1;
    add_cost t cost.Cost_model.pt_entry_ns;
    if slot = 0 then t.l0 else t.l1
  end
  else begin
    let leaf = Page_table.leaf_at t.pt va in
    if leaf == Page_table.no_leaf then unmapped va;
    let ptes = Page_table.leaf_ptes leaf in
    Perf.bump perf Pt_walks 1;
    add_cost t (Cost_model.walk_cost_ns cost);
    if t.pmd_caching then begin
      (* 2-entry rotation: newest in slot 0. *)
      t.r1 <- t.r0;
      t.l1 <- t.l0;
      t.r0 <- region;
      t.l0 <- ptes
    end;
    ptes
  end

let cache_holds t va = t.pmd_caching && cache_find t (Addr.pmd_number va) >= 0

let charge_steady_swap_pages t ~pages ~cached =
  (* Bulk-charge [pages] iterations of Algorithm 1's inner loop in which
     both getPTEs are steady (cache hits, or full walks when caching is
     off).  The serial 8-additions-per-page chain is the dominant host
     cost of a large swap, and it is a pure function of (acc0 bits, pages,
     cached) on a fixed cost model.  The machine's direct-mapped memo
     replays the exact float computed by the reference chain for that
     key, so hits are bit-identical by construction.  The index mixes the
     integer part of acc0 (distinct between successive charges of one op,
     since each bulk adds thousands of ns) with the encoded page count. *)
  let cost = t.machine.Machine.cost in
  let pe = cost.Cost_model.pt_entry_ns in
  let lk = cost.Cost_model.lock_pair_ns in
  let get = if cached then pe else Cost_model.walk_cost_ns cost in
  let acc = t.acc in
  let acc0 = acc.ns in
  let m = Machine.charge_memo t.machine in
  let enc = (pages lsl 1) lor (if cached then 1 else 0) in
  let k = int_of_float acc0 in
  let h = (k lxor (k lsr 17)) * 0x9E3779B1 in
  let idx = (h lxor enc) land (Machine.memo_slots - 1) in
  if
    Array.unsafe_get m.Machine.memo_enc idx = enc
    && Array.unsafe_get m.Machine.memo_acc idx = acc0
  then acc.ns <- Array.unsafe_get m.Machine.memo_out idx
  else begin
    (* The additions run in the exact per-page order of the reference
       loop — getPTE src, getPTE dst, two lock pairs, two slot reads, two
       slot writes — so the sum is bit-identical to the page-at-a-time
       path. *)
    for _ = 1 to pages do
      acc.ns <- acc.ns +. get +. get +. lk +. lk +. pe +. pe +. pe +. pe
    done;
    Array.unsafe_set m.Machine.memo_acc idx acc0;
    Array.unsafe_set m.Machine.memo_enc idx enc;
    Array.unsafe_set m.Machine.memo_out idx acc.ns
  end;
  let perf = t.machine.Machine.perf in
  if cached then Perf.bump perf Pmd_cache_hits (2 * pages)
  else Perf.bump perf Pt_walks (2 * pages)

let read_slot t leaf idx =
  add_cost t t.machine.Machine.cost.Cost_model.pt_entry_ns;
  leaf.(idx)

let write_slot t leaf idx v =
  add_cost t t.machine.Machine.cost.Cost_model.pt_entry_ns;
  leaf.(idx) <- v

let charge_lock_pair t = add_cost t t.machine.Machine.cost.Cost_model.lock_pair_ns
