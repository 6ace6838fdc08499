(** The experiment registry behind `castan experiment`.

    Every table and figure of the paper's §5, the ablation studies of the
    design choices DESIGN.md calls out, and the §5.5 discussion experiments,
    addressable by id.  Running an entry prints its report to stdout;
    [castan experiment --metrics] records the wall times {!prewarm} and
    {!run_id} return as the manifest's ["experiments_timed"]. *)

type entry = {
  id : string;
  descr : string;
  run : Experiment.config -> unit;
}

val all : entry list
val ids : string list

val find : string -> entry option

val expand_id : string -> string list
(** Meta-ids: ["tables"], ["figures"] and ["all"] expand to their groups;
    any other id expands to itself (validity checked by {!run_id}). *)

val run_id : Experiment.config -> string -> float
(** Runs one entry (guarded: a failing entry prints [\[id failed: ...\]] and
    records the failure instead of raising, unless fail-fast is on) and
    prints a timing trailer to stderr; returns the entry's wall time in
    seconds.  The
    trailer and the return value both come from the {!Obs.Trace.timed} span
    the trace stream records, so the three can never disagree.
    @raise Invalid_argument on unknown ids (message lists known ones). *)

val figure_nfs : (string * string) list
(** [(figure id, NF name)] for the CDF figures — used by tests and docs. *)

val prewarm : Experiment.config -> string list -> float option
(** [prewarm config ids] runs the memoized per-NF campaigns behind [ids] on
    the {!Util.Pool} — one task per distinct NF, in the order a serial run
    would first need them — so the subsequent serial rendering pass hits
    the memo table.  This is where [-j N] buys its campaign-level
    parallelism.  Returns the wall seconds spent (recorded as a ["prewarm"]
    trace span), or [None] when it would be pointless: fewer than two
    distinct campaign NFs, or a default job count of 1 (keeping [-j 1]
    exactly the pre-pool code path). *)
