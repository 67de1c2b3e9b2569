(** Parsed description of {e which} kernel faults to inject and {e where}.

    A spec is a comma-separated list of clauses, each naming an injection
    site and a firing mode:

    {v
    pte:p=0.01                1% of PTE-resolution queries fail (EFAULT)
    lock:every=64             every 64th lock acquisition fails (EAGAIN)
    ipi:p=0.002               0.2% of shootdown broadcasts lose an IPI
    swap:p=0.01               1% of swap-device IOs fail (EIO_swap)
    pte:p=0.05:va=0x40000000-0x40400000
                              5% EFAULT rate, but only inside that VA range
    v}

    Clauses combine: ["pte:p=0.01,lock:every=100,ipi:p=0.002"] arms all
    three sites at once.  The spec is pure data — pair it with a seed in
    {!Injector.create} to obtain the deterministic fault stream. *)

type site =
  | Pte_resolve
      (** Queried once per page while a SwapVA request resolves and
          presence-checks its ranges (before any mutation). *)
  | Lock_acquire
      (** Queried once per request when the kernel takes the page-table
          locks for that request (before any mutation). *)
  | Ipi_deliver
      (** Queried once per IPI-sending TLB-shootdown round; a firing
          models one lost IPI, detected and resent by the kernel. *)
  | Swap_io
      (** Queried once per swap-device transfer attempt (both directions);
          a firing models a device EIO.  The reclaim plane retries a
          bounded number of times, then skips the eviction (swap-out) or
          surfaces [EIO_swap] (fault-in). *)

type mode =
  | Probability of float  (** each query fires independently with rate p *)
  | Every of int  (** the Nth, 2Nth, ... matching query fires *)

type clause = {
  site : site;
  mode : mode;
  va_lo : int option;
  va_hi : int option;
      (** Optional inclusive VA window: queries outside it neither fire
          nor advance this clause's counter/PRNG stream.  Only meaningful
          for {!Pte_resolve} and {!Swap_io}, whose queries carry a page
          address. *)
}

type t = clause list
(** Clauses are kept in parse order; the first firing clause wins. *)

val empty : t
val is_empty : t -> bool

val parse : string -> (t, string) result
(** [parse s] reads the [site:key=value[:key=value]] grammar above.
    Accepts [""] as {!empty}.  Errors are human-readable and name the
    offending clause. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string t)] re-reads to an equal
    spec. *)

val pp : Format.formatter -> t -> unit
