(** Failure containment for the analysis pipeline.

    CASTAN's value is the end-to-end evaluation: one harness run drives all
    eleven NFs through symbolic execution, constraint solving, hash reversal
    and the simulated testbed.  Any of those stages can die — heap
    exhaustion inside symbex, an unsolvable path constraint, a malformed
    contention-set file — and one NF's failure must cost one table cell,
    not the run.  So stage failures are {e values}
    ([('a, failure) result]), and {!guard} is the one place an exception
    becomes one.  Nothing keeps a copy: the results carry the failures, and
    [castan experiment] builds its end-of-run summary and exit code from
    them. *)

type failure = {
  stage : string;  (** pipeline stage, e.g. ["symbex"] or ["testbed"] *)
  nf : string option;  (** network function under analysis, if any *)
  reason : string;
}

val failure : ?nf:string -> stage:string -> string -> failure

val to_string : failure -> string
(** One line: [stage(nf): reason]. *)

val by_stage : failure list -> (string * int) list
(** Failure counts grouped by stage, sorted by stage name. *)

val guard : ?nf:string -> stage:string -> (unit -> 'a) -> ('a, failure) result
(** [guard ~stage f] runs [f] and converts any exception into an [Error]
    attributed to [stage], its reason the exception's
    [Printexc.to_string].  When {!set_fail_fast} is on, exceptions
    propagate unchanged so the caller aborts on first failure. *)

val set_fail_fast : bool -> unit
(** When on, {!guard} re-raises instead of containing (exit code 1
    territory).  Default: off. *)
