(** Potential-cost annotation of the ICFG (§3.4).

    During pre-processing, every instruction is annotated with an estimate of
    the maximum cycles that can be consumed from it to the end of the
    per-packet entry function, assuming all memory accesses hit L1.  Loops
    would make the estimate infinite, so a node may appear at most [M] times
    on any path — the static assumption that every loop runs exactly [M - 1]
    times.  [M = 2] by default, as in the paper's evaluation: deep enough to
    see a loop body's cost, shallow enough not to drown everything in
    over-estimation.

    One instruction costs {!Cache.Geometry.op_cycles} of its weight, plus the
    L1 latency for a load or store and, for a [Havoc], [op_cycles] of the
    weight {!Ir.Hashes} declares for its hash.

    Function calls are summarized by the callee's full entry-to-return cost
    (computed callees-first; NFIR forbids recursion), and a symbolic state's
    total potential adds the annotations of every return site on its call
    stack — the "calling and returning from functions in a chain" footnote of
    the paper. *)

type t

val annotate : ?m:int -> Cache.Geometry.t -> Ir.Cfg.t -> t
(** @raise Invalid_argument via {!Ir.Icfg.topo_order} on recursive programs. *)

val full_cost : t -> string -> int
(** Estimated maximum entry-to-return cycles of a whole function. *)

val to_return : t -> func:string -> pc:int -> int
(** Estimated maximum cycles from the instruction at [pc] (inclusive) to the
    function's return. *)
