(** A closure-compiling NFIR executor over a {!Memory.Flat} store.

    Compiles each function once — variables resolved to integer slots,
    expressions to nested closures — and then runs packets without any
    per-instruction dispatch on syntax.  Semantically identical to
    {!Interp}, the reference oracle (differential qcheck properties in the
    test suite compare outcomes, memory-access sequences, budget-exhaustion
    points and profile attribution), several times faster; the testbed DUT
    replays millions of packets through it.

    Maximal straight-line runs of statically-weighted instructions
    (chained through unconditional jumps) are fused into single closures
    that charge the run's retirement weight once.  A fused run falls back
    to one closure per instruction while the profiler is live or when the
    remaining budget cannot cover the run, so per-instruction attribution
    and the instruction at which the budget runs out match {!Interp}.

    Restrictions match {!Interp}: concrete values only, budget-guarded. *)

type t

val program : Cfg.t -> t
(** Compile all functions. *)

type fn
(** A resolved compiled function: look it up once, call it per packet
    without the per-call table probe. *)

val lookup : t -> string -> fn
(** @raise Invalid_argument on an unknown function name. *)

val call :
  fn ->
  mem:Memory.Flat.t ->
  hooks:Interp.hooks ->
  ?budget:int ->
  int array ->
  Interp.outcome
(** Same contract as {!Interp.call}, against a flat store: no per-access
    map descent, no per-store allocation.  Reads and writes the same values
    as {!Interp}; on raise (budget exhaustion), partial writes stay in
    [mem] instead of rolling back.
    @raise Interp.Budget_exhausted when the instruction bound is hit.
    @raise Invalid_argument on arity mismatch. *)
