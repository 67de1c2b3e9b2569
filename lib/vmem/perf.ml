type counter =
  | Syscalls
  | Swapva_calls
  | Memmove_calls
  | Ptes_swapped
  | Pt_walks
  | Pmd_cache_hits
  | Leaf_runs
  | Runs_coalesced
  | Pmd_leaf_swaps
  | Bytes_copied
  | Bytes_remapped
  | Tlb_flush_local
  | Tlb_flush_page
  | Tlb_flush_all
  | Ipis_sent
  | Ipis_lost
  | Shootdown_broadcasts
  | Pins
  | Gc_cycles
  | Swap_retries
  | Swap_fallbacks
  | Alloc_waste_bytes
  | Alloc_bytes
  | Pages_swapped_out
  | Pages_swapped_in
  | Major_faults
  | Reclaim_scans
  | Kswapd_wakes
  | Swap_io_errors
  | Tier_demotions
  | Tier_promotions
  | Admission_rejects
  | Sched_scheduled
  | Sched_dispatched
  | Sched_cancelled

(* Constant constructors are the ints 0..n-1 in declaration order. *)
external index : counter -> int = "%identity"

(* The one name table, in declaration order.  Its names and their order
   are a contract: trace JSON, the counter laws and the benchmark read
   [to_assoc] by name. *)
let table =
  [|
    (Syscalls, "syscalls");
    (Swapva_calls, "swapva_calls");
    (Memmove_calls, "memmove_calls");
    (Ptes_swapped, "ptes_swapped");
    (Pt_walks, "pt_walks");
    (Pmd_cache_hits, "pmd_cache_hits");
    (Leaf_runs, "leaf_runs");
    (Runs_coalesced, "runs_coalesced");
    (Pmd_leaf_swaps, "pmd_leaf_swaps");
    (Bytes_copied, "bytes_copied");
    (Bytes_remapped, "bytes_remapped");
    (Tlb_flush_local, "tlb_flush_local");
    (Tlb_flush_page, "tlb_flush_page");
    (Tlb_flush_all, "tlb_flush_all");
    (Ipis_sent, "ipis_sent");
    (Ipis_lost, "ipis_lost");
    (Shootdown_broadcasts, "shootdown_broadcasts");
    (Pins, "pins");
    (Gc_cycles, "gc_cycles");
    (Swap_retries, "swap_retries");
    (Swap_fallbacks, "swap_fallbacks");
    (Alloc_waste_bytes, "alloc_waste_bytes");
    (Alloc_bytes, "alloc_bytes");
    (Pages_swapped_out, "pages_swapped_out");
    (Pages_swapped_in, "pages_swapped_in");
    (Major_faults, "major_faults");
    (Reclaim_scans, "reclaim_scans");
    (Kswapd_wakes, "kswapd_wakes");
    (Swap_io_errors, "swap_io_errors");
    (Tier_demotions, "tier_demotions");
    (Tier_promotions, "tier_promotions");
    (Admission_rejects, "admission_rejects");
    (Sched_scheduled, "sched_scheduled");
    (Sched_dispatched, "sched_dispatched");
    (Sched_cancelled, "sched_cancelled");
  |]

let n = Array.length table

(* [get] and [bump] skip the bounds check: every constructor must have its
   entry, at its own index. *)
let () = Array.iteri (fun i (c, _) -> assert (index c = i)) table

let all = Array.to_list (Array.map fst table)

type t = int array

let create () = Array.make n 0

let get t c = Array.unsafe_get t (index c)

let bump t c k = Array.unsafe_set t (index c) (Array.unsafe_get t (index c) + k)

let reset t = Array.fill t 0 n 0

let copy = Array.copy

let diff ~after ~before = Array.map2 ( - ) after before

let add ~into d = Array.iteri (fun i v -> into.(i) <- into.(i) + v) d

let to_assoc t = List.init n (fun i -> (snd table.(i), t.(i)))
