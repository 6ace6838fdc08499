(** Run manifests: a machine-readable record of what produced a set of
    results — tool version, git revision, experiment ids, the full
    {!Experiment.config} (including the seed), and the final
    {!Obs.Metrics.snapshot}.

    Written by the [--metrics FILE] flag of [castan analyze], [profile],
    [replay] and [experiment] (the last adds per-experiment wall times), so
    every artifact of a run names the code and configuration that made
    it. *)

val git_describe : unit -> string
(** [git describe --always --dirty] of the working tree, or ["unknown"] when
    git (or the repository) is unavailable.  Never raises. *)

val config_json : Experiment.config -> Obs.Json.t

(** {2 Run identity}

    The facts that decide whether two results are comparable — and whether
    a journal cell may be reused: git revision, a digest of the canonical
    config JSON, the seed, the worker-pool job count and the
    fault-injection signature.  {!Journal} keys its cells by
    this record, and experiment manifests carry it as ["identity"]. *)

type identity = {
  git : string;  (** [git describe --always --dirty] *)
  config_digest : string;  (** MD5 of the canonical config JSON; [""] when
                               no config describes the run *)
  seed : int;
  jobs : int;
  injection : string;  (** {!Util.Resilience.injection_signature} *)
}

val config_digest : Experiment.config -> string
(** MD5 hex of {!config_json}'s rendering — the canonical config digest. *)

val current_identity : ?config:Experiment.config -> unit -> identity
(** The identity a result produced {e now} would carry.  Without [?config],
    [config_digest] is [""] and [seed] is [0]. *)

val identity_json : identity -> Obs.Json.t
val identity_of_json : Obs.Json.t -> (identity, string) result

val make :
  ?ids:string list ->
  ?config:Experiment.config ->
  ?extra:(string * Obs.Json.t) list ->
  unit ->
  Obs.Json.t
(** Builds the manifest object.  [extra] fields are appended at the top
    level ([castan experiment] adds ["experiments_timed"], the
    per-experiment wall times).  The metrics snapshot is taken at call
    time — build the manifest {e after} the run.  A ["solver_cache"]
    section records feasibility slicing ([enabled], [queries],
    [constraints_dropped]); each fact appears once.  When the
    {!Obs.Profile} registry holds attribution samples, a ["profile"]
    section (site-level cycles/accesses plus wall-time buckets) is
    embedded too.  A top-level
    ["jobs"] field records the worker-pool default in effect ([-j]), and a
    ["pool"] section its [tasks]/[steals]/[worker_busy_ns] counters; apart
    from those (and the timestamp and wall times), manifests are
    byte-identical across job counts. *)

val write : path:string -> Obs.Json.t -> unit
(** Writes the manifest followed by a newline, atomically: the bytes land
    in [path ^ ".tmp"] and are fsynced before renaming over [path], so a
    crash never leaves a torn manifest ({!Util.Durable}). *)
