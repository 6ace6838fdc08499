(** Orchestration of the paper's measurement campaign (§5).

    One [nf_run] reproduces everything §5 measures for one NF: the NOP
    baseline, the generic workloads (1 Packet, Zipfian, UniRand), the
    volume-fair UniRand-CASTAN, the synthesized CASTAN workload, and — where
    the paper has one — the hand-crafted Manual workload.  Every table and
    figure draws on the same eleven campaigns, so [castan experiment] runs
    the ones its ids need once, with {!run_all}, and hands the list to each
    entry.  Nothing is cached: a campaign is a value of its NF and config. *)

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

val run : config -> string -> (nf_run, Util.Resilience.failure) result
(** [run config name] looks the NF up in {!Nf.Registry} and runs its
    campaign with every pipeline stage guarded: a failing NF comes back as
    [Error] naming the stage (["symbex"] or ["testbed"]) and the reason, so
    a table can render a [failed:<stage>] cell and go on with the other
    NFs.  The failure is also recorded for the end-of-run summary. *)

type campaigns = (string * (nf_run, Util.Resilience.failure) result) list
(** Campaign results keyed by NF name. *)

val run_all : config -> string list -> campaigns
(** [run_all config names] runs one campaign per name through one
    {!Util.Pool.map} and pairs each name with its result, in input order.
    When [config] uses the contention model, the contention sets are
    discovered first, on the calling domain.  At [-j 1] this is the pool's
    serial loop; at any [-j] the results are the same. *)

val find_row : nf_run -> string -> Testbed.Tg.measurement
(** @raise Not_found for labels absent from this run (e.g. "Manual"). *)

val workload_labels : nf_run -> string list
