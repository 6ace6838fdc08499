(** The crash-safe run journal: checkpoint/resume for campaigns.

    A journal directory records every completed per-NF campaign cell as it
    finishes, so a run that dies — OOM killer, SIGKILL, power loss — can be
    resumed with [--journal DIR --resume] and re-runs {e zero} completed
    cells.  Layout:

    - [DIR/ledger.jsonl] — append-only JSONL ledger, fsynced per line.
      Record kinds: ["open"] (one per session, carrying the run
      {!identity}), ["cell"] (one per completed campaign cell, pointing at
      its segment and carrying its deterministic fingerprint), ["mark"]
      (one per completed experiment id, progress markers for humans and
      {!val:Check}-style tooling).
    - [DIR/cells/cell-<md5(key)>.json] — one atomically-written segment per
      cell, the full serialized {!Experiment.nf_run} (failed cells live
      entirely in their ledger record).

    Cells are only reused under the exact {!identity} that produced them:
    git revision, a digest of the canonical config JSON, the seed, the job
    count, and the fault-injection signature.  A ledger can hold cells from
    many identities (sessions append, never truncate); foreign cells are
    counted as stale and ignored.

    Crash tolerance on load: a torn {e final} ledger line (the crash hit
    mid-append) is silently dropped; corruption anywhere else is an error.
    A segment whose bytes no longer match the ledger's [segment_md5], or
    whose decoded value no longer matches the recorded fingerprint, is
    skipped with a warning — the cell is recomputed rather than trusted. *)

type identity = Manifest.identity = {
  git : string;  (** [git describe --always --dirty] *)
  config_digest : string;  (** MD5 of the canonical config JSON *)
  seed : int;
  jobs : int;
  injection : string;  (** {!Util.Resilience.injection_signature} *)
}

val current_identity : Experiment.config -> identity
(** The identity a cell produced {e now} would be journaled under. *)

type stats = {
  cells_written : int;  (** cells journaled by this session *)
  cells_reused : int;  (** hydrated cells that satisfied a lookup *)
  hydrated : int;  (** cells loaded from the ledger at enable time *)
  stale : int;  (** ledger cells under a foreign identity, ignored *)
  resumes : int;  (** prior sessions ([open] records) in the ledger *)
}

val enable :
  dir:string -> config:Experiment.config -> resume:bool -> (unit, string) result
(** Opens (creating if needed) the journal at [dir] and installs the
    {!Experiment} observers that record each freshly computed cell.  With
    [resume = true], first loads the ledger and seeds the campaign memo
    with every cell recorded under {!current_identity} — those campaigns
    will not run again.  [Error] on an unreadable or corrupt ledger (a torn
    final line is not corruption). *)

val active : unit -> bool

val mark : string -> unit
(** Append a progress marker (an experiment id that completed).  No-op when
    no journal is enabled. *)

val disable : unit -> unit
(** Close the ledger and uninstall the observers.  {!stats} keeps returning
    the final counts.  (The CLI just exits; tests re-enable.) *)

val stats : unit -> stats

val stats_json : unit -> Obs.Json.t
(** The manifest's ["journal"] section: enabled flag, directory, identity,
    and the {!stats} counters. *)

(** {2 Serialization} — exposed for the tests and [check_telemetry].  All
    encoders are deterministic except that [deterministic:true] additionally
    zeroes wall-clock fields ([analysis_time], [wall_time]) and drops
    backtraces, making the encoding — and hence {!fingerprint} — a pure
    function of the computed result. *)

val encode_run : deterministic:bool -> Experiment.nf_run -> Obs.Json.t

val decode_run : Obs.Json.t -> (Experiment.nf_run, string) result
(** Strict: any missing field, wrong type, or unknown NF name is [Error]. *)

val fingerprint :
  (Experiment.nf_run, Util.Resilience.failure) result -> string
(** MD5 hex over the deterministic encoding.  Equal fingerprints between a
    crashed-and-resumed run and an uninterrupted one are the journal's
    correctness contract. *)

val identity_json : identity -> Obs.Json.t
val identity_of_json : Obs.Json.t -> (identity, string) result
