(** Flow table as a 65,536-entry hash table with separate chaining
    (§5.1, associative array 1).

    Buckets hold list heads; collision resolution walks the chain.  Lookup
    cost is the length of the longest chain an adversary can grow — the hash
    collision attack of §5.4 (Fig. 12, 14). *)

val make : unit -> Flowtable.t
