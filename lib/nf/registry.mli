(** The 11 evaluation network functions of §5, by the paper's names. *)

val nop : unit -> Nf_def.t

val find : string -> Nf_def.t
(** Lookup by name, e.g. ["lpm-btrie"], ["nat-hash-ring"], ["nop"].
    @raise Invalid_argument on unknown names (the message lists them). *)

val names : string list
(** The 11 NFs in the order of Table 4, then ["nop"]. *)
