(** Orchestration of the paper's measurement campaign (§5).

    One [nf_run] reproduces everything §5 measures for one NF: the NOP
    baseline, the generic workloads (1 Packet, Zipfian, UniRand), the
    volume-fair UniRand-CASTAN, the synthesized CASTAN workload, and — where
    the paper has one — the hand-crafted Manual workload.  Runs are memoized
    by (NF, config), since every table and figure draws on the same eleven
    campaigns. *)

type row = { label : string; measurement : Testbed.Tg.measurement }

type nf_run = {
  nf : Nf.Nf_def.t;
  nop : Testbed.Tg.measurement;
  rows : row list;  (** in the paper's legend order *)
  castan : Analyze.outcome;
}

type config = {
  scale : Testbed.Traffic.scale;
  samples : int;  (** latency samples per workload *)
  analysis_instrs : int;
      (** symbex budget per NF, in executed instructions: the only
          exploration budget, so a campaign does not depend on host speed
          or [-j] *)
  use_contention_model : bool;  (** false = baseline cache-model ablation *)
  seed : int;
}

val default_config : config
(** Default scale, 20,000 samples, 12,000-instruction analysis budget
    ({!Analyze.default_config}'s), contention model on.  [--full] keeps
    the budget and raises the workload sizes. *)

val quick_config : config
(** Scaled down for tests and smoke runs: 4,000 samples and a
    9,000-instruction analysis budget. *)

val try_run :
  ?config:config -> string -> (nf_run, Util.Resilience.failure) result
(** [try_run name] looks the NF up in {!Nf.Registry} and runs (or returns
    the memoized) campaign with every pipeline stage guarded: a failing NF
    comes back as [Error] naming the stage (["symbex"] or ["testbed"]) and
    the reason, so callers (the harness, the tables) can render a
    [failed:<stage>] cell and continue with the other NFs.  Failures are
    memoized like successes, keeping repeated table renders consistent.
    The memo table is Mutex-guarded: concurrent calls from {!Util.Pool}
    workers (the harness prewarm) are safe, and racing callers agree on one
    canonical cached value. *)

val run : ?config:config -> string -> nf_run
(** Raising wrapper over {!try_run}.
    @raise Failure when the campaign failed. *)

val find_row : nf_run -> string -> Testbed.Tg.measurement
(** @raise Not_found for labels absent from this run (e.g. "Manual"). *)

val workload_labels : nf_run -> string list

val clear_cache : unit -> unit
(** Forget memoized campaigns (tests use it to vary configurations).
    Thread-safe. *)
