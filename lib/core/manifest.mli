(** Run manifests: the one machine-readable record of what produced a set
    of results — tool version, git revision, worker-pool job count,
    experiment ids, the full {!Experiment.config} (including the seed), and
    the final {!Obs.Metrics.snapshot}.

    Written by the [--metrics FILE] flag of [castan analyze], [profile],
    [replay] and [experiment] ([experiment] adds per-experiment wall times,
    [profile] its hot blocks), so every artifact of a run names the code
    and configuration that made it. *)

val git_describe : unit -> string
(** [git describe --always --dirty] of the working tree, or ["unknown"] when
    git (or the repository) is unavailable.  Never raises. *)

val config_json : Experiment.config -> Obs.Json.t

val make :
  ?ids:string list ->
  ?config:Experiment.config ->
  ?extra:(string * Obs.Json.t) list ->
  unit ->
  Obs.Json.t
(** Builds the manifest object.  [extra] fields are appended at the top
    level ([castan experiment] adds ["experiments_timed"], the
    per-experiment wall times; [castan profile] adds ["profile"], its
    blocks as {!Profile_report.to_json}).  The metrics snapshot is taken
    at call time — build the manifest {e after} the run; it holds only
    [counters].  A top-level ["jobs"] field records the worker-pool default
    in effect ([-j]), and a ["pool"] section its [tasks] count; apart from
    those (and the timestamp and wall times), manifests are byte-identical
    across job counts. *)

val write : path:string -> Obs.Json.t -> unit
(** Writes the manifest followed by a newline, atomically: the bytes land
    in [path ^ ".tmp"] and are fsynced before renaming over [path], so a
    crash never leaves a torn manifest ({!Util.Durable}). *)
