(** Virtual-address arithmetic for the simulated x86-64-style MMU.

    Addresses are plain [int]s (OCaml's 63-bit ints comfortably cover the
    48-bit canonical space).  Pages are 4 KiB and the radix tree has four
    levels of 512 entries each, exactly as in the paper's Algorithm 1
    (PGD -> P4D -> PUD -> PMD -> PTE). *)

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

val pgd_index : int -> int

val p4d_index : int -> int

val pud_index : int -> int

val pmd_index : int -> int

val pte_index : int -> int

val pp : Format.formatter -> int -> unit
(** Hexadecimal rendering. *)
