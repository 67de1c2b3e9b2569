(** Shared getPTE machinery for the SwapVA implementations.

    A walker descends the 4-level table to the PTE slot of a virtual
    address, accumulating simulated cost.  With PMD caching enabled it
    keeps the leaf tables of the last two distinct PMD regions (one per
    swap stream, as the paper's "pmd variable" suggests), so consecutive
    pages in either stream skip the directory walk (Fig. 7).  Charging
    allocates nothing: the cost sum lives in a float-only cell. *)

open Svagc_vmem

type t

val create : Machine.t -> Page_table.t -> pmd_caching:bool -> t

val cost_ns : t -> float
(** Cost accumulated so far by this walker. *)

val add_cost : t -> float -> unit

val check_mapped :
  ?fault:Svagc_fault.Injector.t option -> Page_table.t -> va:int -> pages:int ->
  int
(** The vma-style precheck of a SwapVA range: every one of the [pages]
    pages from [va] must be mapped (present or swapped out — exchanging a
    swap entry just moves the slot reference).  Presence is read per leaf
    through the leaf's bitset, O(1) for a fully-mapped leaf.  With an
    injector in [fault], each page is checked in address order and its
    [pte] clause is consulted after the page's own presence check; a
    firing reports the page as a racing unmap would.  Charges nothing:
    the caller's [swap_setup_ns] models this work.  Returns the number of
    PMD leaves the range spans.
    @raise Svagc_fault.Kernel_error.Fault with [EFAULT_unmapped] naming
    the first failing page. *)

val get_pte : t -> int -> Pte.value array
(** [get_pte w va] is the leaf table holding [va]'s PTE (at
    [Addr.pte_index va]), charging a full walk or a PMD-cache hit.  Does
    NOT charge the lock pair — callers charge it per Algorithm step.
    @raise Svagc_fault.Kernel_error.Fault with [EFAULT_unmapped] when the
    page has no leaf table. *)

val cache_holds : t -> int -> bool
(** Would [get_pte] on this address hit the PMD cache right now?  Used by
    the flat engine to detect the steady state in which whole
    sub-runs can be charged in bulk. *)

val charge_steady_swap_pages : t -> pages:int -> cached:bool -> unit
(** Bulk-charge [pages] steady iterations of Algorithm 1's inner loop
    (two getPTEs that both {hit the PMD cache | are full walks}, two lock
    pairs, four PTE word accesses), accumulating cost in the reference
    loop's exact float-addition order and bumping
    [Pmd_cache_hits]/[Pt_walks] by [2*pages].

    The serial per-page addition chain is a pure function of (current
    cost float, pages, cached) on a fixed cost model, so the machine's
    direct-mapped charge memo ({!Svagc_vmem.Machine.charge_memo}) returns
    the exact float the reference chain computed for a repeated key —
    bit-identical by construction — and skips the dominant
    serial-dependency loop of large swaps. *)

val read_slot : t -> Pte.value array -> int -> Pte.value

val write_slot : t -> Pte.value array -> int -> Pte.value -> unit
(** [read_slot w leaf idx] / [write_slot w leaf idx v] access one PTE word
    of a leaf returned by {!get_pte}, charging one PTE word access each. *)

val charge_lock_pair : t -> unit
