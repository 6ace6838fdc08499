(** Source NAT over a pluggable flow table (§5.1).

    Maintains per-flow state keyed two ways — by the internal flow (to
    rewrite outgoing packets) and by the external endpoint (to match
    returning traffic) — so every new flow hashes and stores {e two} entries,
    which is what makes NAT reconciliation so much harder than LB's (§5.4).
    New flows allocate an external port from a counter. *)

val make : Flowtable.t -> Nf_def.t
