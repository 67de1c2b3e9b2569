(** Page table: the PTE leaves, indexed by PMD number.

    The cost model charges Algorithm 1's four-level walk (PGD -> P4D ->
    PUD -> PMD -> PTE) for each [getPTE]; the host reaches a leaf with
    one probe of an {!Svagc_util.Addr_index} keyed by {!Addr.pmd_number}
    and keeps the keys sorted for the ascending walks.  The leaf array is
    exposed on purpose — the paper's PMD-caching optimization consists of
    holding on to that array across consecutive pages, and SwapVA swaps
    slots inside it. *)

type t

type leaf
(** A PTE leaf: the flat 512-entry array plus a presence bitset (16 x
    32-bit words; bit set iff the PTE is mapped — present or swapped)
    and its maintained popcount.  Every none<->mapped transition goes
    through {!set_pte}, which keeps the bitset exact; PTE exchanges
    (mapped-for-mapped) never change it.  {!bitset_violations} is the
    oracle for that invariant. *)

val create : unit -> t

val no_leaf : leaf
(** What {!leaf_at} returns where no leaf exists: every PTE is
    [Pte.none].  Compare with [==]; never write through it. *)

val leaf_at : t -> int -> leaf
(** [leaf_at t va] is the leaf covering [va], or {!no_leaf}.  Allocates
    nothing and writes nothing. *)

val leaf_ptes : leaf -> Pte.value array

val leaf_first_unmapped : leaf -> lo:int -> hi:int -> int
(** First index in [\[lo, hi)] whose PTE is [Pte.none], or -1 when the
    whole window is mapped.  O(1) when the leaf is fully mapped
    (popcount precheck), otherwise a masked scan of the bitset words —
    at most 16 word loads instead of up to 512 PTE loads. *)

val get_pte : t -> int -> Pte.value
(** [Pte.none] when unmapped. *)

val swap_pte_runs :
  Pte.value array -> start_a:int -> Pte.value array -> start_b:int -> len:int ->
  unit
(** Exchange two equal-length PTE slices element-wise (no allocation).
    The slices may live in the same leaf but must not overlap.
    @raise Invalid_argument on out-of-bounds or overlapping slices. *)

val swap_pmd_entries : t -> int -> int -> unit
(** Exchange the whole 512-PTE leaf tables of two PMD-aligned addresses:
    the O(1) leaf-swap fast path.  Both slots must hold leaf tables.
    @raise Invalid_argument when unaligned or either slot has no leaf. *)

val set_pte : t -> int -> Pte.value -> unit
(** Creates the leaf if needed. *)

val translate : t -> int -> (int * int) option
(** [translate t va] is [Some (frame, offset)] when mapped.  A swapped
    entry does NOT translate — resolving it is the demand-paging fault
    handler's job (svagc_reclaim). *)

val mapped_pages : t -> int
(** Number of present PTEs (O(mapped), for tests and teardown). *)

val iter_mapped : t -> f:(vpn:int -> frame:int -> unit) -> unit

val iter_swapped : t -> f:(vpn:int -> slot:int -> unit) -> unit
(** Walk every swapped (non-present, slot-carrying) PTE — the read path of
    the svagc_check reclaim conservation oracle. *)

val swapped_pages : t -> int
(** Number of swapped PTEs (O(mapped)). *)

val bitset_violations : t -> int
(** Recompute every leaf's presence bitset from its PTE array and count
    the leaves whose stored bitset or popcount disagree — 0 under the
    documented invariant (the svagc_check law). *)
