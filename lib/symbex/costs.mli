(** The cycle cost model: fixed per-instruction costs learned empirically
    plus per-memory-level costs (§3.3).

    Non-memory NFIR operations retire on a superscalar core at less than one
    cycle each; memory operations cost the latency of the level that serves
    them ({!Cache.Geometry.op_cycles}).  Hash weights come from the
    analysis configuration because the IR layer does not know hash
    implementations. *)

type t = {
  geom : Cache.Geometry.t;
  hash_weight : string -> int;  (** instructions per hash application *)
}

val default : ?hash_weight:(string -> int) -> Cache.Geometry.t -> t
(** Unknown hashes weigh 24. *)

val instr_local : t -> Ir.Cfg.instr -> int
(** Local cost of an instruction assuming memory accesses hit L1 — the
    pre-processing assumption of §3.4. *)
