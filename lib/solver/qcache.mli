(** Accounting and the on/off switch for the feasibility fast path.

    {!Solve.feasible_sliced} slices each query down to the part of the path
    condition it shares symbols with ({!Slice}) and then only refutes it.
    This module counts those queries and the constraints slicing removed,
    and holds the switch that turns slicing off ([--no-solver-cache]).

    It no longer caches anything.  A feasibility verdict is [false] only
    when the refutation step proves Unsat, so a satisfying model never
    decided one; with no models left to reuse, a query cache has nothing to
    answer that is cheaper than refuting again.  The [hits], [subset_hits],
    [model_reuse] and [evictions] fields of {!stats} are kept so that
    existing readers of the record still build, and are always 0; run
    manifests omit them.

    Statistics are cumulative and domain-safe: each {!Util.Pool} task counts
    privately and its counts are added to the main totals at join. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Default [true].  Disabling turns slicing off: feasibility checks and
    [Solve.domain_of] then see the whole path condition, and {!note_query}
    records nothing ([--no-solver-cache]).  Verdicts are the same either
    way. *)

val note_query : dropped:int -> unit
(** Account one sliced feasibility query from which slicing removed
    [dropped] constraints (the [solver.cache.miss] and
    [solver.slice.constraints_dropped] counters). *)

type stats = {
  queries : int;  (** sliced feasibility queries while enabled *)
  hits : int;  (** always 0 *)
  subset_hits : int;  (** always 0 *)
  model_reuse : int;  (** always 0 *)
  misses : int;  (** queries that went to the refutation step: all of them *)
  constraints_dropped : int;  (** slicing total via {!note_query} *)
  evictions : int;  (** always 0 *)
}

val stats : unit -> stats
(** Cumulative since process start (or {!reset_stats}). *)

val reset_stats : unit -> unit
