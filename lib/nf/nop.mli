(** The NOP network function: forwards packets untouched.

    Used to isolate the fixed DPDK/driver/testbed overhead from the NF's own
    processing — every latency figure in §5 plots it as the baseline. *)

val make : unit -> Nf_def.t
