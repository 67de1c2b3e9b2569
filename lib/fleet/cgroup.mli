(** Per-tenant soft/hard resident-frame limits over the shared pool —
    the memory-cgroup plane of the fleet simulation.

    The module is pure accounting; the mechanism lives in the reclaimer,
    which drives it through {!iface}: a tenant's [resident] count is its
    page count in the reclaim tracking table, tenants over their {e soft}
    limit become preferred kswapd victims (soft-limit-first selection),
    and a tenant over its {e hard} limit has its coldest pages evicted
    immediately on the mapping/faulting/adopt paths.

    Tenants appear implicitly (unlimited) on first charge; register real
    limits with {!set_limits} — and call
    [Svagc_reclaim.Reclaim.enforce_hard] afterwards if the tenant may
    already be over.

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

val iface : t -> Svagc_reclaim.Reclaim.cgroup_iface
(** The accounting plane as a reclaimer-pluggable closure record. *)

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
