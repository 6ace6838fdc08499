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
(** Feasibility check: [false] only when the refutation step of {!sat}
    proves the constraints unsatisfiable, so no feasible path is ever
    dropped.  It never searches for a model, since a model cannot change
    the verdict: [feasible cs = (sat cs <> Unsat)] for every [cs] and every
    [rng] and [attempts] given to [sat].  The symbex hot path asks
    {!Pc.feasible} instead, which refutes the same way against a slice. *)

val syms_of : Ir.Expr.sexpr list -> Ir.Expr.sym list
(** Symbols occurring in the constraints, deduplicated. *)

(** {2 For {!Pc}} *)

type prepared
(** A constraint simplified and run through the overflow guard once. *)

val prepare : Ir.Expr.sexpr -> prepared
val prepared_expr : prepared -> Ir.Expr.sexpr
(** The simplified constraint. *)

val feasible_prepared : prepared list -> bool
(** [feasible_prepared (List.map prepare cs) = feasible cs]. *)

val sat_prepared :
  ?rng:Util.Rng.t -> ?attempts:int -> prepared list -> verdict
(** [sat cs] is [sat_prepared (List.map prepare cs)]. *)

val domain_of_prepared : prepared list -> Ir.Expr.sexpr -> Domain.t
(** [domain_of_prepared ps e] over-approximates the values the simplified
    expression [e] can take under the constraints, after propagation
    ([Domain.const 0] when propagation refutes them). *)
