(** Fixed-size Domain worker pool with a determinism contract.

    The contract: for any [f] that follows the repository's RNG and
    telemetry discipline, [map ~jobs f items] returns the same results for
    every value of [jobs], and leaves the same counter totals and the same
    failure list behind.  Concretely:

    - Results come back in input order, regardless of completion order.
    - [~jobs:1] (and single-item inputs) take the exact pre-pool serial
      code path: no domains are spawned.  So a caller needs no serial
      special case of its own: [castan experiment] runs its campaigns
      through one [map] at every job count ([Castan.Experiment.run_all]).
    - Telemetry needs no merging.  [Obs.Metrics] counters are atomic
      sums, and the trace sink and the log write whole lines under a lock.
      A contained failure is a value in its task's result.  The profiler
      records on the main domain only.  Trace and log lines from
      concurrent tasks interleave; nothing reads their order.
    - If tasks raise, every task still runs to completion and the
      exception of the {e lowest} failing index is re-raised with its
      backtrace, as a serial run would have raised it.  Counters then
      include the tasks after that index, which a serial run would not
      have started.
    - Tasks needing randomness must derive their generator from the task
      index via {!Rng.split_ix}, never from a shared advancing stream.

    Span durations and other wall-clock values are scheduling-dependent
    and exempt, as they are for serial runs. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to each item on up to [jobs] worker
    domains and returns the results in input order.  [jobs] defaults to
    {!default_jobs}; [jobs <= 1], a list of fewer than two items, or a call
    from inside another pool task all run sequentially on the calling
    domain (nested pools do not oversubscribe). *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each item's index. *)

val run : ?jobs:int -> (unit -> unit) list -> unit
(** [run ~jobs fs] executes each thunk under the same contract as {!map},
    discarding results. *)

val chunked : ?jobs:int -> int -> (lo:int -> hi:int -> 'b) -> 'b list
(** [chunked ~jobs n f] splits the index range [\[0, n)] into at most
    [jobs] contiguous chunks and evaluates [f ~lo ~hi] for each, returning
    chunk results in range order.  The chunk boundaries depend only on [n]
    and the number of pieces, so callers that fold per-index values
    (derived via {!Rng.split_ix}) get shard-invariant totals.  Sequential
    fallbacks evaluate the single chunk [f ~lo:0 ~hi:n]. *)

(* ------------------------------------------------------------------ *)
(* Job-count configuration                                             *)
(* ------------------------------------------------------------------ *)

val set_default_jobs : int -> unit
(** Sets the process-wide default used when [?jobs] is omitted (clamped to
    at least 1).  The CLI's [-j]/[--jobs] flag lands here.  Initial
    default: 1, i.e. fully serial. *)

val default_jobs : unit -> int

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j] defaults to at the
    CLI. *)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type stats = {
  tasks : int;  (** tasks executed on worker domains (serial runs: 0) *)
}

val stats : unit -> stats
(** Process-lifetime totals; recorded under ["pool"] in run manifests. *)

val reset_stats : unit -> unit
