open Svagc_vmem

let rotation_reference a ~delta =
  let n = Array.length a in
  if n = 0 then [||]
  else Array.init n (fun i -> a.((i + delta) mod n))

(* FindSwapPlace from Algorithm 2: destination index of the element
   currently at [i] under a left rotation by [delta] of a [total]-element
   window, where [total = pages + delta]. *)
let find_swap_place ~i ~delta ~pages = if i < delta then i + pages else i - delta

exception Bail of Svagc_fault.Kernel_error.t

let swap ?(fault = None) proc ~pmd_caching ~per_page_flush ~src ~dst ~pages =
  match
    let open Svagc_fault.Kernel_error in
    if not (Addr.is_page_aligned src) then raise (Bail (EINVAL_unaligned { va = src }));
    if not (Addr.is_page_aligned dst) then raise (Bail (EINVAL_unaligned { va = dst }));
    if pages <= 0 then raise (Bail (EINVAL_bad_pages { pages }));
    if dst <= src then
      raise (Bail (EINVAL_geometry { reason = "overlap path requires src < dst" }));
    let delta = (dst - src) / Addr.page_size in
    if delta > pages then
      raise
        (Bail (EINVAL_geometry { reason = "ranges do not overlap (use Swapva.swap)" }));
    delta
  with
  | exception Bail e -> Error e
  | delta ->
  let machine = Process.machine proc in
  let aspace = Process.aspace proc in
  let pt = Address_space.page_table aspace in
  let walker = Pte_walker.create machine pt ~pmd_caching in
  let total = pages + delta in
  let perf = machine.Machine.perf in
  let cost = machine.Machine.cost in
  let slot_at idx = Pte_walker.get_pte walker (src + (idx * Addr.page_size)) in
  (* Verify the whole window is mapped before mutating anything, so a bad
     call cannot leave a half-rotated window behind.  This is the vma check
     a real kernel does up front; its cost is the caller's swap_setup_ns,
     so no walker cost is charged here.  The fault plane's [pte] clause is
     queried here too — an injected EFAULT models a racing unmap observed
     during resolution, and like a real one it precedes all mutation. *)
  match
    for idx = 0 to total - 1 do
      let va = src + (idx * Addr.page_size) in
      (* Mapped = present or swapped out: rotating PTE words moves swap
         entries like any other, with no device IO. *)
      if not (Pte.is_mapped (Page_table.get_pte pt va)) then
        raise (Bail (Svagc_fault.Kernel_error.EFAULT_unmapped { va }));
      match fault with
      | Some inj
        when Svagc_fault.Injector.fire inj ~site:Svagc_fault.Fault_spec.Pte_resolve ~va
        ->
        raise (Bail (Svagc_fault.Kernel_error.EFAULT_unmapped { va }))
      | _ -> ()
    done
  with
  | exception Bail e -> Error e
  | () ->
  Ok (
  let cycles = Svagc_util.Num_util.gcd delta pages in
  for cur_idx = 0 to cycles - 1 do
    let cur_slot = slot_at cur_idx in
    Pte_walker.charge_lock_pair walker;
    let pte_temp = ref (Pte_walker.read_slot walker cur_slot) in
    let k = ref (find_swap_place ~i:cur_idx ~delta ~pages) in
    while !k <> cur_idx do
      let k_slot = slot_at !k in
      Pte_walker.charge_lock_pair walker;
      let pte_k_temp = Pte_walker.read_slot walker k_slot in
      Pte_walker.write_slot walker k_slot !pte_temp;
      if per_page_flush then begin
        Pte_walker.add_cost walker cost.Cost_model.tlb_flush_page_ns;
        Perf.bump perf Tlb_flush_page 1
      end;
      Perf.bump perf Ptes_swapped 1;
      pte_temp := pte_k_temp;
      k := find_swap_place ~i:!k ~delta ~pages
    done;
    Pte_walker.write_slot walker cur_slot !pte_temp;
    if per_page_flush then begin
      Pte_walker.add_cost walker cost.Cost_model.tlb_flush_page_ns;
      Perf.bump perf Tlb_flush_page 1
    end;
    Perf.bump perf Ptes_swapped 1
  done;
  Perf.bump perf Bytes_remapped (pages * Addr.page_size);
  Pte_walker.cost_ns walker)
