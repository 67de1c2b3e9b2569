(** Heap objects, mirrored as OCaml records.

    Payload bytes live in the simulated address space at [addr]; this
    record is the GC-visible metadata (the "object header" a JVM would
    keep in the first words of the object).  [size] includes the
    {!header_bytes}-byte header.

    A reference slot holds its target's record ({!null} when empty), so
    following a reference is a load, never a lookup by address, and a
    move changes only the target's [addr]: no slot is rewritten.  The
    adjust-pointers phase still charges the rewrites a real VM performs.

    An object a collection leaves behind is flagged, not freed: the
    gather every collector runs ([Forward.live_in_address_order]) sets
    each unmarked object's [forward] to {!dead}.  A live object's
    [forward] is 0 between collections and a heap address within one, so
    the flag needs no field of its own, and a reference a collector let
    dangle still raises wherever it is followed. *)

type t = {
  id : int;
  mutable addr : int;
  size : int;
  cls : int;  (** workload-defined class tag *)
  refs : t array;  (** targets; {!null} marks an empty slot *)
  mutable marked : bool;
  mutable forward : int;
      (** destination address during a GC cycle; {!dead} once dropped *)
}

val header_bytes : int
(** 16: an id word and a size word stamped into simulated memory. *)

val null : t
(** The target of every empty reference slot, compared by [==].  It
    belongs to no heap and is never marked, moved or dropped. *)

val dead : int
(** -1: the [forward] of an object a collection dropped. *)

val make : id:int -> addr:int -> size:int -> cls:int -> n_refs:int -> t
(** Every reference slot starts as {!null}. *)

val dropped : t -> bool
(** [forward = dead]: a collection found the object unreachable. *)

val pages : t -> int
(** Pages spanned when page-aligned: ⌈size / page_size⌉. *)

val end_addr : t -> int
(** [addr + size]. *)

val pp : Format.formatter -> t -> unit
