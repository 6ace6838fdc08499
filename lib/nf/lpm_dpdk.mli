(** LPM via two-stage hierarchical direct lookup — the DPDK scheme (§5.1,
    data structure 3).

    The first 24 destination bits index a 2^24-entry (64MB) first-stage
    array; entries covering a /24 that contains longer prefixes carry a flag
    and the index of a 256-entry second-stage group indexed by the last 8
    bits.  At most two memory accesses per lookup.  Smaller tables make small
    contention-causing workloads much harder to find (Fig. 6) — the paper's
    robustness argument for this structure. *)

val make : unit -> Nf_def.t
