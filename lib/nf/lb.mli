(** Stateful L4 load balancer over a pluggable flow table (§5.1).

    VIP-to-DIP translation: connections addressed to the virtual IP are
    pinned to a backend chosen round-robin on first sight; everything else is
    statically routed without touching the flow table (hence the workload
    shaper that rewrites generic traffic onto the VIP, as the paper does). *)

val make : Flowtable.t -> Nf_def.t
