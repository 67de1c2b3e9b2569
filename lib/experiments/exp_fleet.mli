(** Fleet extension — 1k+ tenants with memory cgroups, admission control
    and a tiered far-memory swap device, contrasting SwapVA vs memmove
    tail GC pauses under 2x overcommit.  Registered as [exp fleet]. *)

val measure : quick:bool -> Exp_common.collector_kind -> Svagc_fleet.Fleet.result
(** One deterministic fleet run for the given collector. *)

val print_results : Svagc_fleet.Fleet.result list -> unit
(** The experiment's summary / tail-latency / per-class tables, shared
    with the [svagc fleet] subcommand. *)

val run : ?quick:bool -> unit -> unit
