(** The cache model consulted by the symbolic-execution engine (§3.3, §4).

    On every symbolic [load]/[store], the model (1) inspects its current
    state, picks the {e worst} concrete address compatible with the pointer's
    constraints — preferring lines whose contention set is closest to
    spilling associativity — and returns the constraint that concretizes the
    pointer; (2) updates its state so future accesses account for it.

    Following the paper, only the L3 is modeled: a tracked line re-accessed
    while resident costs an L3 hit; anything else costs a DRAM access.
    Contention sets bound residency: once a class holds [α] lines, a new
    member evicts the least recently used one.

    Three variants support the ablation study:
    - {!contention}: classes from empirically discovered contention sets —
      the paper's default;
    - {!oracle}: classes from the ground-truth slice hash and set index (what
      a perfect reverse-engineering would give);
    - {!baseline}: no contention knowledge — only cold misses are predicted,
      and symbolic pointers concretize to the first compatible value. *)

type t

type outcome = {
  addr : int;  (** the (possibly just) concretized address *)
  miss : bool;  (** DRAM access predicted *)
  latency : int;  (** cycles for this access *)
  added : Ir.Expr.sexpr option;  (** pointer-concretization constraint *)
}

val contention : Geometry.t -> Contention.t -> t
val oracle : Geometry.t -> slice_of:(int -> int) -> t
(** [slice_of] maps a {e virtual} address to its ground-truth slice (the
    caller bakes in the translation). *)

val baseline : Geometry.t -> t

val access_concrete : t -> int -> t * outcome
(** Account a load/store at a concrete virtual address. *)

val access_symbolic : t -> pc:Solver.Pc.t -> Ir.Expr.sexpr -> t * outcome
(** Concretize and account a symbolic pointer under the given path
    constraints.  The returned [added] constraint (absent when the pointer
    simplified to a constant) must be appended to the state's path
    constraint. *)
