(** Satisfiability and model generation for NFIR path constraints.

    This is the repository's stand-in for the SMT solver CASTAN delegates to
    (STP/Z3).  It is specialized to the constraint fragment NF code produces:
    equalities and inequalities over packet-field symbols combined with
    addition, multiplication/shift by constants, bit masks and packing.

    The pipeline: simplify each constraint, then {e invert} equalities through
    invertible operator chains into per-symbol bit knowledge (known-bit
    mask/value) and interval domains, then complete the remaining free bits by
    randomized local search, validating candidate models by concrete
    evaluation of the original constraints.  Everything up to the search is
    the {e refutation step}; it alone decides [Unsat], and it is all that
    {!feasible} runs.

    Verdicts are sound: [Unsat] is returned only when propagation derives a
    genuine contradiction; [Sat] models are always verified by evaluation;
    everything else is [Unknown]. *)

module Model : sig
  type t

  val empty : t
  val find : t -> Ir.Expr.sym -> int option
  val get : t -> Ir.Expr.sym -> int
  (** [get m s] defaults to 0 for unbound symbols (they are unconstrained). *)

  val add : Ir.Expr.sym -> int -> t -> t
  val of_list : (Ir.Expr.sym * int) list -> t
  val eval : t -> Ir.Expr.sexpr -> int
  val pp : Format.formatter -> t -> unit
end

type verdict = Sat of Model.t | Unsat | Unknown

val check : Model.t -> Ir.Expr.sexpr list -> bool
(** [check m cs] holds when every constraint evaluates non-zero under [m]
    (and evaluation does not fault). *)

val sat :
  ?rng:Util.Rng.t -> ?attempts:int -> Ir.Expr.sexpr list -> verdict
(** [attempts] bounds the local-search steps of the completion phase
    (default 2000). *)

val feasible : Ir.Expr.sexpr list -> bool
(** Feasibility check used on every symbolic branch: [false] only when the
    refutation step of {!sat} proves the constraints unsatisfiable, so no
    feasible path is ever dropped.  It never searches for a model, since a
    model cannot change the verdict: [feasible cs = (sat cs <> Unsat)] for
    every [cs] and every [rng] and [attempts] given to [sat]. *)

val feasible_sliced : query:Ir.Expr.sexpr -> Ir.Expr.sexpr list -> bool
(** [feasible_sliced ~query pcs] = [feasible (query :: pcs)] for the symbex
    hot path, where [pcs] is a path condition whose every constraint
    already passed a feasibility check at insertion.  The query is refuted
    against only the connected component of [pcs] it shares symbols with
    ({!Slice}), plus the ground constraints.  Under that insertion invariant
    (or for any satisfiable [pcs]) the verdict equals the unsliced one. *)

val domain_of : Ir.Expr.sexpr list -> Ir.Expr.sexpr -> Domain.t
(** Over-approximates the values [e] can take under the constraints; used by
    the cache model to enumerate candidate concrete addresses of a symbolic
    pointer. *)

val syms_of : Ir.Expr.sexpr list -> Ir.Expr.sym list
(** Symbols occurring in the constraints, deduplicated. *)
