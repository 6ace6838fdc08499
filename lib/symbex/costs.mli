(** The cycle cost model: fixed per-instruction costs learned empirically
    plus per-memory-level costs (§3.3).

    Non-memory NFIR operations retire on a superscalar core at less than one
    cycle each; memory operations cost the latency of the level that serves
    them ({!Cache.Geometry.op_cycles}).  A hash application weighs what
    {!Hashrev.Hashes} declares for it. *)

val instr_local : Cache.Geometry.t -> Ir.Cfg.instr -> int
(** Local cost of an instruction assuming memory accesses hit L1 — the
    pre-processing assumption of §3.4. *)
