(** Growable arrays (the standard [Dynarray] is not available on OCaml 5.1).

    Amortized O(1) push at the end, O(1) random access.  Not thread-safe. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty vector.  [capacity] pre-sizes the backing store. *)

val release : 'a t -> int -> unit
(** [release v i] overwrites slot [i] with an internal witness so the
    element becomes collectable by the host GC while the slot stays within
    [length].  For containers that abandon live slots (e.g. the work
    deque's stolen prefix); reading a released slot before overwriting it
    again is a programming error.  @raise Invalid_argument if out of
    bounds. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at the end of [v]. *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, or [None] if empty.  The
    vacated slot no longer retains the element. *)

val pop_last : 'a t -> 'a
(** [pop] without the option, so it allocates nothing.
    @raise Invalid_argument if [v] is empty. *)

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] overwrites the [i]-th element.  @raise Invalid_argument if
    out of bounds. *)

val clear : 'a t -> unit
(** [clear v] removes every element (keeps the backing store's capacity but
    releases every element for the host GC). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val for_all : ('a -> bool) -> 'a t -> bool

val find_opt : ('a -> bool) -> 'a t -> 'a option

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : 'a list -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : ('a -> bool) -> 'a t -> 'a t

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes every element of [src] onto the end of [dst]
    in order, in one blit (no per-element allocation).  [src] is
    unchanged; growing [dst] rounds its capacity up to the next power of
    two that fits. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** [sort cmp v] sorts [v] in place. *)

val last : 'a t -> 'a option
