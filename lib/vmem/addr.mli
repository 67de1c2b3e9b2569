(** Virtual-address arithmetic for the simulated x86-64-style MMU.

    Addresses are plain [int]s (OCaml's 63-bit ints comfortably cover the
    48-bit canonical space).  Pages are 4 KiB.  The cost model charges the
    four-level walk of the paper's Algorithm 1 (PGD -> P4D -> PUD -> PMD ->
    PTE, 512 entries a level); the host structure behind it is a leaf
    index keyed by {!pmd_number}. *)

val page_size : int
(** 4096 bytes. *)

val entries_per_table : int
(** 512. *)

val pages_per_pmd : int
(** 512: pages covered by one PTE leaf table; crossing this boundary
    invalidates the paper's PMD cache. *)

val page_number : int -> int
(** Virtual page number of an address. *)

val page_offset : int -> int
(** Offset within the page. *)

val of_page : int -> int
(** First byte address of a virtual page number. *)

val is_page_aligned : int -> bool

val align_up : int -> int
(** Round up to the next page boundary (identity when aligned). *)

val align_down : int -> int

val pages_spanned : int -> int
(** [pages_spanned len] is ⌈len / page_size⌉. *)

val pte_index : int -> int
(** Slot of the page in its PTE leaf table. *)

val pmd_number : int -> int
(** Which 2 MiB PMD region the address lies in: the key of the page
    table's leaf index. *)

val pp : Format.formatter -> int -> unit
(** Hexadecimal rendering. *)
