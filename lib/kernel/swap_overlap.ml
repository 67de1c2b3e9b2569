open Svagc_vmem

let rotation_reference a ~delta =
  let n = Array.length a in
  if n = 0 then [||]
  else Array.init n (fun i -> a.((i + delta) mod n))

(* FindSwapPlace from Algorithm 2: destination index of the element
   currently at [i] under a left rotation by [delta] of a [total]-element
   window, where [total = pages + delta]. *)
let find_swap_place ~i ~delta ~pages = if i < delta then i + pages else i - delta

let swap ?(fault = None) proc ~pmd_caching ~per_page_flush ~src ~dst ~pages =
  let machine = Process.machine proc in
  let pt = Address_space.page_table (Process.aspace proc) in
  let module E = Svagc_fault.Kernel_error in
  let bail e = raise (E.Fault e) in
  match
    if not (Addr.is_page_aligned src) then bail (E.EINVAL_unaligned { va = src });
    if not (Addr.is_page_aligned dst) then bail (E.EINVAL_unaligned { va = dst });
    if pages <= 0 then bail (E.EINVAL_bad_pages { pages });
    if dst <= src then
      bail (E.EINVAL_geometry { reason = "overlap path requires src < dst" });
    let delta = (dst - src) / Addr.page_size in
    if delta > pages then
      bail (E.EINVAL_geometry { reason = "ranges do not overlap (use Swapva.swap)" });
    (* The window's vma check, before anything moves, so a bad call cannot
       leave a half-rotated window behind; its cost is the caller's
       swap_setup_ns.  An injected EFAULT models a racing unmap observed
       during resolution and, like a real one, precedes all mutation. *)
    ignore (Pte_walker.check_mapped ~fault pt ~va:src ~pages:(pages + delta));
    delta
  with
  | exception E.Fault e -> Error e
  | delta ->
  let walker = Pte_walker.create machine pt ~pmd_caching in
  let perf = machine.Machine.perf in
  let cost = machine.Machine.cost in
  let va_at idx = src + (idx * Addr.page_size) in
  Ok (
  let cycles = Svagc_util.Num_util.gcd delta pages in
  let pte_index idx = Addr.pte_index (va_at idx) in
  for cur_idx = 0 to cycles - 1 do
    let cur_leaf = Pte_walker.get_pte walker (va_at cur_idx) in
    Pte_walker.charge_lock_pair walker;
    let pte_temp = ref (Pte_walker.read_slot walker cur_leaf (pte_index cur_idx)) in
    let k = ref (find_swap_place ~i:cur_idx ~delta ~pages) in
    while !k <> cur_idx do
      let k_leaf = Pte_walker.get_pte walker (va_at !k) in
      Pte_walker.charge_lock_pair walker;
      let pte_k_temp = Pte_walker.read_slot walker k_leaf (pte_index !k) in
      Pte_walker.write_slot walker k_leaf (pte_index !k) !pte_temp;
      if per_page_flush then begin
        Pte_walker.add_cost walker cost.Cost_model.tlb_flush_page_ns;
        Perf.bump perf Tlb_flush_page 1
      end;
      Perf.bump perf Ptes_swapped 1;
      pte_temp := pte_k_temp;
      k := find_swap_place ~i:!k ~delta ~pages
    done;
    Pte_walker.write_slot walker cur_leaf (pte_index cur_idx) !pte_temp;
    if per_page_flush then begin
      Pte_walker.add_cost walker cost.Cost_model.tlb_flush_page_ns;
      Perf.bump perf Tlb_flush_page 1
    end;
    Perf.bump perf Ptes_swapped 1
  done;
  Perf.bump perf Bytes_remapped (pages * Addr.page_size);
  Pte_walker.cost_ns walker)
