(** Rendering experiment results in the paper's formats.

    Figures are printed as CDF series (one column per workload, rows at
    fixed quantiles — directly plottable), tables as aligned text mirroring
    Tables 1-5. *)

val print_cdf_figure :
  id:string ->
  title:string ->
  unit_label:string ->
  (string * Util.Stats.cdf) list ->
  unit
(** Quantile grid of 21 rows (0%, 5%, ..., 100%). *)

val latency_series : Experiment.nf_run -> (string * Util.Stats.cdf) list
(** NOP first, then the run's workloads — the latency figures' legends. *)

val cycles_series : Experiment.nf_run -> (string * Util.Stats.cdf) list

val print_throughput_table :
  ?failed:(string * Util.Resilience.failure) list ->
  Experiment.nf_run list ->
  unit
(** Table 1: max throughput (Mpps) per NF and workload.  [failed] lists the
    NFs whose campaign died — each keeps a column, filled with
    [failed:<stage>] cells, so one broken NF never loses the table. *)

val print_instrs_table :
  ?failed:(string * Util.Resilience.failure) list ->
  Experiment.nf_run list ->
  unit
(** Table 2: median instructions retired per packet. *)

val print_misses_table :
  ?failed:(string * Util.Resilience.failure) list ->
  Experiment.nf_run list ->
  unit
(** Table 3: median L3 misses per packet. *)

val print_analysis_table :
  ?failed:(string * Util.Resilience.failure) list ->
  Experiment.nf_run list ->
  unit
(** Table 4: packets generated and symbex instructions executed (the
    paper reports run time; instructions do not depend on the host);
    failed NFs get a [failed:<stage>] row. *)

val print_deviation_table :
  ?failed:(string * Util.Resilience.failure) list ->
  Experiment.nf_run list ->
  unit
(** Table 5: median latency deviation from NOP (ns). *)

val print_failure_summary : Util.Resilience.failure list -> unit
(** The end-of-run error report: per-stage failure counts followed by one
    line per failure, sorted by (NF, stage, reason) so the report does not
    depend on the order the failures were collected in.  Prints nothing for
    an empty list. *)
