(** Shared getPTE machinery for the SwapVA implementations.

    A walker descends the 4-level table to the PTE slot of a virtual
    address, accumulating simulated cost.  With PMD caching enabled it
    keeps the leaf tables of the last two distinct PMD regions (one per
    swap stream, as the paper's "pmd variable" suggests), so consecutive
    pages in either stream skip the directory walk (Fig. 7). *)

open Svagc_vmem

type t

val create : Machine.t -> Page_table.t -> pmd_caching:bool -> t

val cost_ns : t -> float
(** Cost accumulated so far by this walker. *)

val add_cost : t -> float -> unit

val get_pte : t -> int -> Pte.value array * int
(** [get_pte w va] is the leaf table and slot index for [va], charging a
    full walk or a PMD-cache hit.  Does NOT charge the lock pair — callers
    charge it per Algorithm step.
    @raise Svagc_fault.Kernel_error.Fault with [EFAULT_unmapped] when the
    page has no leaf table. *)

val cache_holds : t -> int -> bool
(** Would [get_pte] on this address hit the PMD cache right now?  Used by
    the flat engine to detect the steady state in which whole
    sub-runs can be charged in bulk. *)

val charge_get_pte : t -> int -> leaf:Pte.value array -> unit
(** Charge exactly what {!get_pte} would for this address — cache probe,
    hit or walk cost, counters, cache rotation — given that the caller
    already resolved the covering [leaf] (no leaf lookup happens). *)

val charge_steady_swap_pages : t -> pages:int -> cached:bool -> unit
(** Bulk-charge [pages] steady iterations of Algorithm 1's inner loop
    (two getPTEs that both {hit the PMD cache | are full walks}, two lock
    pairs, four PTE word accesses), accumulating cost in the reference
    loop's exact float-addition order and bumping
    [Pmd_cache_hits]/[Pt_walks] by [2*pages].

    The serial per-page addition chain is a pure function of (current
    cost float, pages, cached) on a fixed cost model, so the machine's
    direct-mapped charge memo returns the exact float the reference chain
    computed for a repeated key — bit-identical by construction — and
    skips the dominant serial-dependency loop of large swaps. *)

val read_slot : t -> Pte.value array * int -> Pte.value

val write_slot : t -> Pte.value array * int -> Pte.value -> unit
(** Charges one PTE word access per read/write. *)

val charge_lock_pair : t -> unit
