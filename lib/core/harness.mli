(** The experiment registry behind `castan experiment`.

    Every table and figure of the paper's §5, the ablation studies of the
    design choices DESIGN.md calls out, and the §5.5 discussion experiments,
    addressable by id.  Running an entry prints its report to stdout.
    [castan experiment] makes one lazy contention-set discovery, forces it
    to run the campaigns of {!campaign_nfs} with {!Experiment.run_all},
    then hands both to every entry; [--metrics] records the campaigns' wall
    time and each {!run_id}'s as the manifest's ["experiments_timed"]. *)

type entry = {
  id : string;
  descr : string;
  run :
    Experiment.config -> Cache.Contention.t Lazy.t -> Experiment.campaigns ->
    unit;
      (** figures and tables read their NFs' campaigns from the list;
          ablations and discussion experiments ignore it, and force the
          discovery if they analyze under the contention model *)
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

val run_id :
  Experiment.config -> Cache.Contention.t Lazy.t -> Experiment.campaigns ->
  string -> (unit, Util.Resilience.failure) result * float
(** [run_id config sets campaigns id] runs one entry (guarded: a failing
    entry prints [\[id failed: ...\]] and returns the failure instead of
    raising, unless fail-fast is on) and prints a timing trailer to stderr;
    returns the entry's result and its wall time in seconds.  A figure or
    table renders a failed campaign as a [failed:<stage>] cell and returns
    [Ok ()]: that failure is the campaign list's to report.  The trailer
    and the wall time both come from the {!Obs.Trace.timed} span the trace
    stream records, so the three can never disagree.  A figure or table
    whose NF is missing from [campaigns] fails with [Invalid_argument]
    naming the NF, contained like any other failure.  The first entry to
    force [sets] is charged for the discovery; if it raises, that entry
    fails and every later force re-raises the same exception without
    probing again.
    @raise Invalid_argument on unknown ids (message lists known ones). *)

val figure_nfs : (string * string) list
(** [(figure id, NF name)] for the CDF figures — used by tests and docs. *)
