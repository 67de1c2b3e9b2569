(** Heap objects, mirrored as OCaml records.

    Payload bytes live in the simulated address space at [addr]; this
    record is the GC-visible metadata (the "object header" a JVM would
    keep in the first words of the object).  [size] includes the
    {!header_bytes}-byte header.  Reference slots hold the *current
    addresses* of the referenced objects (0 = null), and are rewritten by
    the GC's adjust-pointers phase. *)

type t = {
  id : int;
  mutable addr : int;
  size : int;
  cls : int;  (** workload-defined class tag *)
  refs : int array;
  mutable marked : bool;
  mutable forward : int;  (** destination address during a GC cycle *)
}

val header_bytes : int
(** 16: an id word and a size word stamped into simulated memory. *)

val make : id:int -> addr:int -> size:int -> cls:int -> n_refs:int -> t

val pages : t -> int
(** Pages spanned when page-aligned: ⌈size / page_size⌉. *)

val end_addr : t -> int
(** [addr + size]. *)

val pp : Format.formatter -> t -> unit
