(** Flow table as a 16.7M-entry open-addressing hash ring (§5.1,
    associative array 2).

    Entries live in a circular array inside a single 1GB page, one cache
    line per entry; a full hash collision probes forward to the next free
    slot.  The sheer size of the array makes the dominant adversarial
    behaviour cache contention rather than probe chains — which is exactly
    what CASTAN finds (Fig. 13, 15). *)

val make : unit -> Flowtable.t
