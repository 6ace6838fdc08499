(** The CASTAN pipeline (§3.1): from an NF to an adversarial workload.

    Runs directed symbolic execution over [n] symbolic packets with the
    configured cache model, then post-processes the most expensive states:
    havoced hashes are reconciled through rainbow tables (§3.5), the path
    constraint is solved, and the model's packets become the workload.  If
    the best state's constraints cannot be solved, the next-ranked states
    are tried, up to 16 in all — mirroring the tool's "pick the state with
    the highest cost" step with a practical fallback.

    Rainbow tables are built once per (hash, key-space) pair and memoized
    across analyses. *)

type cache_kind =
  | Contention_sets of Cache.Contention.t  (** the paper's default *)
  | Oracle  (** ground-truth slice hash: the perfect-knowledge ablation *)
  | Baseline  (** no contention knowledge: cold-miss-only ablation *)

type config = {
  n_packets : int option;  (** default: the NF's Table-4 size *)
  strategy : Symbex.Searcher.strategy;
  cache : cache_kind;
  m : int;
  time_budget : float;
      (** safety deadline in seconds ({!Symbex.Driver.config}); the
          exploration budget is [instr_budget] *)
  instr_budget : int;  (** executed symbex instructions *)
  seed : int;
}

val default_config : ?cache:cache_kind -> unit -> config
(** Castan searcher, M = 2, 12,000 instructions (the default-scale
    experiment budget), 300 s safety deadline.  The contention model must
    be provided by [cache] (default {!Baseline} so the call works without
    a discovery run; experiments pass the sets their run discovered). *)

type outcome = {
  nf : string;
  workload : Testbed.Workload.t;  (** named "CASTAN" *)
  predicted : Symbex.State.metrics list;  (** per packet, from the model *)
  predicted_cost : int;  (** total cycles of the chosen state *)
  n_havocs : int;
  reconciled : int;
  states_tried : int;
  stats : Symbex.Driver.stats;
}

val run : config:config -> Nf.Nf_def.t -> outcome
(** @raise Failure if no explored state yields a solvable workload (does not
    happen for the 11 evaluation NFs). *)

val discover_contention_sets :
  ?pool:int -> ?pages:int -> ?reboots:int -> unit -> Cache.Contention.t
(** Runs §3.2 discovery with the standard candidate pool.  It probes
    afresh on every call; a caller that needs the sets twice passes the
    value on.  Defaults: a pool of 512 offsets, 2 pages × 2 reboots (the
    paper probes 8 pages); these are the pipeline's only discovery
    settings. *)
