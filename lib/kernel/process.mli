(** A simulated process: one address space plus scheduling state.

    The paper's Algorithm 4 pins the compacting process to a core for the
    duration of a GC cycle so TLB invalidations stay local; {!pin} /
    {!unpin} model that (and charge the affinity cost). *)

open Svagc_vmem

type t

val create : ?name:string -> Machine.t -> t

val pid : t -> int

val name : t -> string

val aspace : t -> Address_space.t

val machine : t -> Machine.t

val fresh_object_id : t -> int
(** The next object id, counting from 1.  Every heap and large object
    space of the process draws from this one counter, so an object keeps
    a unique id (the key of root sets and stamped headers) whichever
    space it lives in. *)

val co_runners : t -> int
(** Co-running processes sharing the machine's copy bandwidth, this one
    included: 1 until [Multi_jvm.create] sets it for its instances. *)

val set_co_runners : t -> int -> unit

val current_core : t -> int
(** The core the process is running on (0 unless migrated). *)

val set_current_core : t -> int -> unit

val is_pinned : t -> bool

val pin : t -> core:int -> float
(** Pin to [core]; returns the scheduling cost in ns. *)

val unpin : t -> float
