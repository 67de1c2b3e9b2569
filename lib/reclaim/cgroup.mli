(** Per-tenant soft/hard resident-frame limits over the shared pool —
    the reclaimer's memory-cgroup plane, which the fleet driver installs
    on its machine.

    The module is pure accounting; the mechanism lives in {!Reclaim},
    which calls it directly: a tenant's [resident] count is its page count
    in the reclaim tracking table ({!charge} and {!uncharge} fire as pages
    enter and leave it), tenants over their {e soft} limit become
    preferred kswapd victims (soft-limit-first selection), and a tenant
    over its {e hard} limit has its coldest pages evicted immediately on
    the mapping/faulting/adopt paths.

    Tenants appear implicitly (unlimited) on first charge; register real
    limits with {!set_limits}.  A tenant already over a tightened hard
    limit is brought back under on its next mapping, fault or adopt.

    Tenants live in an array indexed by asid (doubling as asids grow), so
    every per-page query is one array read; slots no tenant has claimed
    share one immutable "absent" record that reads as unlimited with
    nothing resident.  The over-soft population is kept exact on every
    charge, uncharge and limit change, which makes {!any_over_soft} O(1),
    and {!stats} comes out in asid order without sorting. *)

type t

val create : unit -> t
(** An empty cgroup table: every tenant is unlimited until
    {!set_limits}. *)

val charge : t -> asid:int -> unit
(** One more resident page for [asid], creating the tenant (unlimited) on
    its first charge.
    @raise Invalid_argument if [asid] is negative (likewise
    {!uncharge}). *)

val uncharge : t -> asid:int -> unit
(** One resident page fewer for [asid]. *)

val set_limits : t -> asid:int -> soft:int -> hard:int -> unit
(** @raise Invalid_argument unless [0 <= soft <= hard] and [hard >= 1],
    or if [asid] is negative. *)

val resident : t -> asid:int -> int
(** Pages currently resident (tracked by the reclaimer); 0 for unknown
    tenants. *)

val excess : t -> asid:int -> int
(** Pages above the hard limit (0 when under, or unknown). *)

val prefer : t -> asid:int -> bool
(** Over the soft limit: a preferred eviction victim. *)

val any_over_soft : t -> bool
(** O(1): is any tenant over its soft limit? *)

val tenant_count : t -> int
(** Tenants that have appeared (charged a page or registered limits). *)

val stats : t -> (int * int * int * int) list
(** [(asid, resident, soft, hard)] in ascending-asid order. *)
