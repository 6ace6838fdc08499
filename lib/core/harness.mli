(** The experiment registry behind `castan experiment`.

    Every table and figure of the paper's §5, the ablation studies of the
    design choices DESIGN.md calls out, and the §5.5 discussion experiments,
    addressable by id.  Running an entry prints its report to stdout.
    [castan experiment] first runs the campaigns of {!campaign_nfs} with
    {!Experiment.run_all}, then hands that list to every entry;
    [--metrics] records the campaigns' wall time and each {!run_id}'s as
    the manifest's ["experiments_timed"]. *)

type entry = {
  id : string;
  descr : string;
  run : Experiment.config -> Experiment.campaigns -> unit;
      (** figures and tables read their NFs' campaigns from the list;
          ablations and discussion experiments ignore it *)
}

val all : entry list
val ids : string list

val find : string -> entry option

val expand_id : string -> string list
(** Meta-ids: ["tables"], ["figures"] and ["all"] expand to their groups;
    any other id expands to itself (validity checked by {!run_id}). *)

val campaign_nfs : string list -> string list
(** The campaign NFs behind a list of experiment ids, without duplicates,
    in the order the ids first need them.  Ablation and discussion ids need
    none. *)

val run_id : Experiment.config -> Experiment.campaigns -> string -> float
(** [run_id config campaigns id] runs one entry (guarded: a failing entry
    prints [\[id failed: ...\]] and records the failure instead of raising,
    unless fail-fast is on) and prints a timing trailer to stderr; returns
    the entry's wall time in seconds.  The trailer and the return value
    both come from the {!Obs.Trace.timed} span the trace stream records, so
    the three can never disagree.  A figure or table whose NF is missing
    from [campaigns] fails with [Invalid_argument] naming the NF, contained
    like any other failure.
    @raise Invalid_argument on unknown ids (message lists known ones). *)

val figure_nfs : (string * string) list
(** [(figure id, NF name)] for the CDF figures — used by tests and docs. *)
