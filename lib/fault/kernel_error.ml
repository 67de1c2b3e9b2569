type t =
  | EFAULT_unmapped of { va : int }
  | EINVAL_unaligned of { va : int }
  | EINVAL_bad_pages of { pages : int }
  | EINVAL_identical
  | EINVAL_geometry of { reason : string }
  | EAGAIN_contended
  | EIPI_lost of { core : int }
  | EIO_swap of { va : int }

exception Fault of t
exception Fault_ns of t * float

let errno_name = function
  | EFAULT_unmapped _ -> "EFAULT"
  | EINVAL_unaligned _ | EINVAL_bad_pages _ | EINVAL_identical
  | EINVAL_geometry _ ->
    "EINVAL"
  | EAGAIN_contended -> "EAGAIN"
  | EIPI_lost _ -> "EIPI"
  | EIO_swap _ -> "EIO"

let to_string = function
  | EFAULT_unmapped { va } ->
    Printf.sprintf "EFAULT: range contains an unmapped page at 0x%x" va
  | EINVAL_unaligned { va } ->
    Printf.sprintf "EINVAL: address 0x%x is not page-aligned" va
  | EINVAL_bad_pages { pages } ->
    Printf.sprintf "EINVAL: page count must be positive (got %d)" pages
  | EINVAL_identical -> "EINVAL: source and destination ranges are identical"
  | EINVAL_geometry { reason } -> Printf.sprintf "EINVAL: %s" reason
  | EAGAIN_contended -> "EAGAIN: page-table lock contended"
  | EIPI_lost { core } ->
    Printf.sprintf "EIPI: shootdown IPI to core %d was lost" core
  | EIO_swap { va } ->
    Printf.sprintf "EIO: swap device error faulting in page at 0x%x" va

let equal (a : t) (b : t) = a = b

let is_transient = function EAGAIN_contended -> true | _ -> false

let is_degradable = function
  | EFAULT_unmapped _ | EAGAIN_contended -> true
  | EINVAL_unaligned _ | EINVAL_bad_pages _ | EINVAL_identical
  | EINVAL_geometry _ | EIPI_lost _ | EIO_swap _ ->
    false

let pp ppf t = Format.pp_print_string ppf (to_string t)
