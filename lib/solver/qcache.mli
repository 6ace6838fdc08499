(** Accounting for the feasibility fast path.

    {!Pc.feasible} slices each query down to the part of the path
    condition it shares symbols with and then only refutes it.  This module
    counts those queries.  It no longer caches anything (see DESIGN.md §9);
    the [hits], [subset_hits] and [model_reuse] fields of {!stats} are kept
    so that existing readers of the record still build, and are always 0.

    The count is an atomic, so {!Util.Pool} tasks add to it directly and
    the total does not depend on the job count. *)

val note_query : dropped:int -> unit
(** Account one sliced feasibility query from which slicing removed
    [dropped] constraints (also the [solver.cache.miss] and
    [solver.slice.constraints_dropped] counters). *)

type stats = {
  queries : int;  (** sliced feasibility queries *)
  hits : int;  (** always 0 *)
  subset_hits : int;  (** always 0 *)
  model_reuse : int;  (** always 0 *)
}

val stats : unit -> stats
(** Cumulative since process start. *)
