(** LPM via a binary (Patricia-style) trie (§5.1, data structure 1).

    Each trie node corresponds to an IP prefix; children refine it by one
    bit.  Lookup walks from the root consuming destination bits and
    remembers the last next-hop seen, so its cost is proportional to the
    longest matching prefix — up to 32 steps.  The adversarial workload is
    algorithmic: packets that match the most specific routes (Fig. 7, 8).

    The Manual workload is the paper's: the 8 packets matching the /32
    routes (plus single-bit variants at the end of the prefix when more
    packets are requested — which is what CASTAN itself discovered). *)

val make : unit -> Nf_def.t
