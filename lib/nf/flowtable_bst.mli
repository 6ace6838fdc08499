(** Flow table as an unbalanced binary search tree (§5.1, associative
    array 3).

    No rebalancing: inserting keys in sorted order degenerates the tree into
    a linked list, so lookup cost is attacker-controlled up to the number of
    flows — the classic algorithmic-complexity attack (Fig. 9, 10).  This is
    the structure for which the paper hand-crafts a Manual skew workload. *)

val make : unit -> Flowtable.t
