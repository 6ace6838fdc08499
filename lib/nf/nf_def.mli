(** The packaged form of an evaluation network function.

    Everything CASTAN and the testbed need: the lowered NFIR program (its
    havocs name hashes in {!Ir.Hashes}), tailored rainbow-table key spaces for
    reconciliation, a shaper that adapts generic workloads to the NF (the LB
    only exercises its data structure for VIP-addressed traffic), and — where
    the paper's authors crafted one — the Manual adversarial workload. *)

type t = {
  name : string;
  descr : string;
  program : Ir.Cfg.t;
  keyspaces : (string * Hashrev.Rainbow.keyspace) list;
      (** per hash name; empty when the NF does not hash *)
  shape : Packet.t -> Packet.t;
      (** force generic traffic onto the interesting path *)
  manual : (Util.Rng.t -> int -> Packet.t list) option;
      (** hand-crafted adversarial workload of the requested size *)
  castan_packets : int;  (** workload size used in the paper (Table 4) *)
}

val fresh_memory : t -> int Ir.Memory.t
(** A concrete memory for running the NF on the testbed. *)

val fresh_symbolic_memory : t -> Ir.Expr.sexpr Ir.Memory.t
(** A symbolic memory (constant-injected) for analysis. *)

val region_base : Ir.Memory.spec list -> string -> int
(** Base address a region will get; for embedding in program text. *)
