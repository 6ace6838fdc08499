(** LPM via single-stage Direct Lookup (§5.1, data structure 2).

    The forwarding table is expanded into equal-length /27 routes stored in
    one flat array of 2^27 8-byte entries — exactly 1GB, the size of one huge
    page.  Lookup is a single array index: minimal, predictable instruction
    count, but a textbook target for adversarial memory access because the
    table dwarfs the 25.6MB L3 (Fig. 4, Fig. 5, Tables 1-3). *)

val make : unit -> Nf_def.t
