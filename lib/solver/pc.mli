(** Path conditions, kept by component.

    A state's path condition is mostly a union of constraints over
    {e disjoint} symbol sets: each packet's fields, each havoced hash
    output, each concretized pointer touch their own cluster.  Whether one
    new constraint is feasible depends only on the connected component (by
    shared symbols) it touches, so a query is refuted against that slice
    alone: KLEE's independent-solver rule, with the components kept
    incrementally, as SymNet attaches constraints to the variables they
    mention.

    A [t] is persistent, so a forked state shares its parent's.  {!add}
    simplifies each constraint and runs the solver's overflow guard on it
    once, and merges the components it touches, the largest absorbing the
    rest.  {!feasible} and {!domain_of} read the query's slice off the
    components it touches.

    Dropping the other components is exact for the verdicts
    {!Solve.feasible} reports as long as none of them is unsatisfiable on
    its own.  The engine keeps that invariant: every constraint enters a
    path condition only after a feasibility check, and the solver proves
    [Unsat] component-locally (per-symbol propagation, per-constraint
    decomposition, ordering cycles within one component). *)

type t

val empty : t

val add : t -> Ir.Expr.sexpr -> t
(** Pushes a constraint.  Trivially-true constants and constraints already
    present structurally are dropped (the same [t] comes back): re-taken
    branches and re-touched pointers otherwise append the same constraint
    over and over. *)

val of_list : Ir.Expr.sexpr list -> t
(** Adds a newest-first list, oldest first. *)

val to_list : t -> Ir.Expr.sexpr list
(** The constraints as added, newest first. *)

val length : t -> int

val slice : t -> query:Ir.Expr.sexpr -> Ir.Expr.sexpr list * int
(** [slice pc ~query] is [(slice, dropped)]: [slice] keeps, newest first,
    every constraint of [pc] whose component contains a symbol of the
    simplified [query], plus every ground constraint (no symbols: a ground
    contradiction must never be sliced away); [dropped] is how many it
    leaves out.  A ground [query] keeps everything.  Components are taken
    over the constraints as added, not simplified. *)

val feasible : t -> query:Ir.Expr.sexpr -> bool
(** [feasible pc ~query = Solve.feasible (query :: slice)] for [slice] as
    {!slice} gives it: the same verdict as [Solve.feasible (query ::
    to_list pc)] whenever no component of [pc] is refutable on its own.
    Counts one {!Qcache.note_query}; reading the slice is charged to the
    [solver.cache] profiler bucket. *)

val sat : ?rng:Util.Rng.t -> t -> Solve.verdict
(** [sat pc = Solve.sat (to_list pc)], reusing the simplification and
    overflow guard {!add} already ran on each constraint. *)

val domain_of : t -> Ir.Expr.sexpr -> Domain.t
(** Over-approximates the values [e] can take under the slice of [pc] it
    touches; the cache model and reconciliation enumerate candidate values
    of a symbolic pointer or hash output from it. *)
