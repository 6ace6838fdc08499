(** Failure containment for the analysis pipeline.

    CASTAN's value is the end-to-end evaluation: one harness run drives all
    eleven NFs through symbolic execution, constraint solving, hash reversal
    and the simulated testbed.  Any of those stages can die — heap
    exhaustion inside symbex, an unsolvable path constraint, a malformed
    contention-set file — and a single uncontained exception used to abort
    the whole campaign.  This module is the failure-semantics contract every
    stage now follows:

    - stage failures are {e values} ([('a, failure) result]), carrying the
      stage name, the NF being analyzed, the reason and a backtrace;
    - symbolic exploration runs against a {e safety deadline} that can be
      polled cheaply from inner loops;
    - the degradation paths are themselves testable through a seeded
      {e fault injector} that probabilistically trips guarded stages.

    Failures funnel into a process-wide sink so the end of a run can print
    an error summary and choose an exit code (clean / completed-degraded /
    fatal). *)

type failure = {
  stage : string;  (** pipeline stage, e.g. ["symbex"] or ["testbed"] *)
  nf : string option;  (** network function under analysis, if any *)
  reason : string;
  backtrace : string;  (** possibly empty *)
}

val failure : ?nf:string -> ?backtrace:string -> stage:string -> string -> failure
(** [failure ~stage reason] builds a failure value; backtrace defaults to
    empty. *)

val to_string : failure -> string
(** One line: [stage(nf): reason]. *)

val pp : Format.formatter -> failure -> unit

val by_stage : failure list -> (string * int) list
(** Failure counts grouped by stage, sorted by stage name. *)

exception Injected of failure
(** Raised by {!checkpoint} when the ambient fault injector fires. *)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

val guard : ?nf:string -> stage:string -> (unit -> 'a) -> ('a, failure) result
(** [guard ~stage f] runs [f] and converts any exception into [Error] — an
    {!Injected} fault keeps the stage recorded at its injection point,
    anything else is attributed to [stage].  Failures are also appended to
    the {!recorded} sink.  When {!set_fail_fast} is on, exceptions propagate
    unchanged so the caller aborts on first failure. *)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

type deadline

val deadline_in : float -> deadline
(** [deadline_in seconds] expires [seconds] of wall time from now. *)

val expired : deadline -> bool
(** Cheap enough to poll from an interpreter loop. *)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type injector

val inject : rate:float -> seed:int -> injector
(** [inject ~rate ~seed] fires on each {!checkpoint} independently with
    probability [rate], deterministically from [seed].  [rate = 0.] never
    fires (and {!checkpoint} stays a no-op, preserving bit-identical
    behaviour); [rate = 1.] always fires. *)

val set_injection : injector option -> unit
(** Installs (or clears) the ambient injector consulted by
    {!checkpoint}.  Default: none. *)

val checkpoint : ?nf:string -> stage:string -> unit -> unit
(** Marks the entry of a guarded stage.  No-op unless an ambient injector
    is installed and fires, in which case {!Injected} is raised (and
    subsequently converted to [Error] by the enclosing {!guard}). *)

(* ------------------------------------------------------------------ *)
(* Fail-fast and the failure sink                                      *)
(* ------------------------------------------------------------------ *)

val set_fail_fast : bool -> unit
(** When on, {!guard} re-raises instead of containing (exit code 1
    territory).  Default: off. *)

val fail_fast : unit -> bool

val record : failure -> unit
(** Appends to the process-wide sink ({!guard} does this automatically).
    The sink is Mutex-guarded, so {!Pool} tasks record into it directly. *)

val recorded : unit -> failure list
(** All failures recorded so far, sorted by [(nf, stage, reason)] (ties
    in recording order), so the list does not depend on which of several
    concurrent tasks failed first. *)

val reset : unit -> unit
(** Clears the sink (tests; the CLI resets between runs). *)
