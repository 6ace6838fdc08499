(** Flow table as a red-black tree — the [std::map] stand-in (§5.1,
    associative array 4).

    A full CLRS insertion with recoloring and rotations, written in NFIR.
    Rebalancing bounds lookups at O(log n) regardless of insertion order,
    which is why CASTAN fails to find a small adversarial workload for it:
    every time the searcher grows a deep path, the fixup flattens it — the
    local-maxima behaviour discussed in §5.3 (Fig. 11). *)

val make : unit -> Flowtable.t
