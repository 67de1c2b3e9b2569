(** The simulated kernel's typed error surface.

    Every failure a SwapVA-family syscall can report is a value of {!t},
    mirroring the errno a real kernel would return plus enough payload to
    diagnose the failing input.  The kernel guarantees {e error implies no
    mutation}: a call that reports any of these errors has not modified a
    single PTE, so callers (the GC's [Move_object] in particular) can
    always degrade to the byte-copy path or retry without repair work.

    Errors are produced both by genuine invalid inputs (unaligned
    addresses, unmapped ranges) and by the deterministic fault-injection
    plane ({!Injector}), which models transient kernel-level failures such
    as racing unmaps and page-table lock contention. *)

type t =
  | EFAULT_unmapped of { va : int }
      (** A page of the request was not present at [va] — either genuinely
          unmapped, or an injected transient fault modeling a racing
          unmap/migration observed during PTE resolution. *)
  | EINVAL_unaligned of { va : int }
      (** A range endpoint is not page-aligned. *)
  | EINVAL_bad_pages of { pages : int }
      (** The request's page count is zero or negative. *)
  | EINVAL_identical  (** Source and destination ranges coincide. *)
  | EINVAL_geometry of { reason : string }
      (** An overlapping-area precondition does not hold (e.g. the window
          does not actually overlap, or [dst <= src]). *)
  | EAGAIN_contended
      (** The page-table lock could not be acquired — an injected
          contention fault.  Transient: retrying can succeed. *)
  | EIPI_lost of { core : int }
      (** A TLB-shootdown IPI was dropped before delivery to [core].
          Never surfaced to userspace: the shootdown protocol detects the
          missing ack and resends (see {!Injector} and the DESIGN.md fault
          chapter), charging the extra round instead of failing. *)
  | EIO_swap of { va : int }
      (** The swap device failed every attempt of a bounded retry while
          faulting the page at [va] back in (injected via the [swap] fault
          site).  Not transient from the caller's perspective — the fault
          handler has already exhausted its retry budget — and not
          degradable: the page's bytes are unreachable, so there is no
          byte-copy fallback. *)

exception Fault of t
(** Raised by kernel internals strictly {e before} any mutation; the
    syscall boundary catches it and returns the payload as a typed error. *)

exception Fault_ns of t * float
(** Raised at the syscall boundary by the raising convenience entry points
    ([Swapva.swap]): the typed error plus the simulated ns the failed call
    still cost (crossing + setup).  Callers that must charge that time use
    [Swapva.swap_result] instead of catching this. *)

val errno_name : t -> string
(** The errno-style tag alone: ["EFAULT"], ["EINVAL"], ["EAGAIN"],
    ["EIPI"], ["EIO"]. *)

val to_string : t -> string
(** Full rendering, e.g.
    ["EFAULT: range contains an unmapped page at 0x40000000"]. *)

val equal : t -> t -> bool

val is_transient : t -> bool
(** [true] for errors a bounded retry can clear ({!EAGAIN_contended}).
    [EFAULT_unmapped] is {e degradable} but not transient: retrying the
    swap does not help, falling back to byte copy does. *)

val is_degradable : t -> bool
(** [true] when the caller may safely fall back to the memmove path
    ({!EFAULT_unmapped}, {!EAGAIN_contended}).  [false] for the [EINVAL]
    family: those indicate a caller bug and must fail loudly. *)

val pp : Format.formatter -> t -> unit
