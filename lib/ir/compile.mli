(** A closure-compiling NFIR executor over a {!Memory.Flat} store.

    Compiles each function in one walk — a variable resolved to an
    integer slot when the walk first meets it, expressions to nested
    closures — and then runs packets without any per-instruction dispatch
    on syntax.  Semantically identical to
    {!Interp}, the reference oracle (differential qcheck properties in the
    test suite compare outcomes, memory-access sequences, budget-exhaustion
    points and profile attribution), several times faster; the testbed DUT
    replays millions of packets through it.

    Maximal straight-line runs of statically-weighted instructions
    (chained through unconditional jumps) are fused into single closures
    that charge the run's retirement weight once; such an instruction's
    effect has one compilation, used by its own closure and by the fused
    runs.  A fused run falls back
    to one closure per instruction while the profiler is live or when the
    remaining budget cannot cover the run, so per-instruction attribution
    and the instruction at which the budget runs out match {!Interp}.

    Restrictions match {!Interp}: concrete values only, budget-guarded.

    Running a compiled program allocates nothing per call once it is warm:
    returns, argument passing and frames all reuse storage the program
    owns.  A compiled program therefore holds mutable per-call state and
    must be used from one domain at a time; compile one per domain (the
    testbed compiles one per DUT). *)

type t

val program : Cfg.t -> t
(** Compile all functions, resolving each [Havoc]'s hash in {!Hashes}.
    @raise Invalid_argument on a call to an unknown function or a [Havoc]
    of an undeclared hash. *)

type fn
(** A resolved compiled function: look it up once, call it per packet
    without the per-call table probe. *)

val lookup : t -> string -> fn
(** @raise Invalid_argument on an unknown function name. *)

type ctx
(** A caller-owned execution context: the flat store and hooks calls run
    against, and the counters of the last call.  Reusing one context for
    every packet keeps the per-packet path allocation-free. *)

val context : mem:Memory.Flat.t -> hooks:Interp.hooks -> ctx

val run : ctx -> ?budget:int -> fn -> int array -> int
(** [run ctx f argv] executes [f] as {!call} does and returns its return
    value; {!instrs} and {!outcome} then describe this call.  [budget]
    defaults to 10 million.  [argv] is copied into the callee's frame
    before it runs, so the caller may refill it for the next call.
    @raise Interp.Budget_exhausted when the instruction bound is hit.
    @raise Invalid_argument on arity mismatch. *)

val instrs : ctx -> int
(** Weighted instructions the last {!run} retired. *)

val outcome : ctx -> Interp.outcome
(** The last completed {!run}'s result, counters included, as {!call}
    returns it. *)

val call :
  fn ->
  mem:Memory.Flat.t ->
  hooks:Interp.hooks ->
  ?budget:int ->
  int array ->
  Interp.outcome
(** Same contract as {!Interp.call}, against a flat store: no per-access
    map descent, no per-store allocation.  Runs on a fresh {!context}.
    Reads and writes the same values as {!Interp}; on raise (budget
    exhaustion), partial writes stay in [mem], as they stay in the
    reference {!Interp.call} rebinds per store.
    @raise Interp.Budget_exhausted when the instruction bound is hit.
    @raise Invalid_argument on arity mismatch. *)
