(** Concrete NFIR interpreter — the "production build" semantics.

    Runs a function on concrete arguments against a concrete memory, calling
    back on every memory access so the testbed can drive its cache simulator
    and cycle model.  [Havoc] executes the real hash function (production
    semantics of the [castan_havoc] annotation): the {!Hashes} entry of its
    name, retiring the hash's declared weight on top of the instruction's. *)

type hooks = {
  on_access : addr:int -> width:int -> write:bool -> unit;
      (** Called for every executed [Load]/[Store]. *)
}

val no_hooks : hooks
(** No-op access hook. *)

type outcome = {
  ret : int;  (** return value of the called function; 0 if [Return None] *)
  instrs : int;  (** weighted instructions retired (see {!Cfg.weight}) *)
  loads : int;
  stores : int;
}

exception Budget_exhausted

val call :
  Cfg.t ->
  mem:int Memory.t ref ->
  hooks:hooks ->
  ?budget:int ->
  string ->
  int list ->
  outcome
(** [call program ~mem ~hooks f args] executes [f] to completion.  [mem] is
    updated in place (rebound to the resulting persistent memory).  [budget]
    (default 10 million) bounds executed instructions and guards against
    non-terminating NF code.
    @raise Budget_exhausted when the bound is hit.
    @raise Invalid_argument on arity mismatch, undefined variables or a
    [Havoc] of a hash {!Hashes} does not declare. *)
