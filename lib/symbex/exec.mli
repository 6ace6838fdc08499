(** The symbolic-execution stepper: NFIR "analysis build" semantics.

    One call executes the current instruction of a state.  Symbolic branch
    conditions fork (both outcomes feasibility-checked against the path
    constraint); symbolic pointers are concretized adversarially by the cache
    model; [Havoc] replaces hash outputs by fresh symbols of the width
    {!Ir.Hashes} declares, charges the hash's declared weight, and records
    the pair for reconciliation. *)

type fork = {
  preferred : State.t;
      (** at a loop head, the "one more iteration" outcome (§3.4) *)
  deferred : State.t list;
  at_loop_head : bool;
}

type kill_reason =
  | Packet_budget
      (** a state ran 100,000 raw instructions in one packet: guards
          against loops the loop bound cannot see *)
  | Heap_exhausted of string  (** [Alloc] with no heap left *)
  | Memory_fault of string  (** out-of-bounds, misaligned or wrong-width *)
  | Undefined_var of string
  | Arity_mismatch of string  (** callee name *)
  | No_pointer_target of string  (** ["load"] or ["store"] *)
  | Infeasible_branch  (** both outcomes contradict the path constraint *)

val reason_label : kill_reason -> string
(** Coarse bucket for accounting (e.g. ["heap-exhausted"]) — the keys of
    {!Driver.stats.kill_reasons}. *)

val reason_is_fault : kill_reason -> bool
(** True for state-local faults (heap exhaustion, memory faults, undefined
    variables, arity mismatches) as opposed to normal exploration outcomes
    (budget, infeasibility).  Any fault kill marks the driver run
    degraded. *)

type step_result =
  | Running of State.t
  | Forked of fork
  | Packet_done of State.t  (** the entry function returned *)
  | Killed of State.t * kill_reason
      (** the state died; the engine and its siblings continue *)

val step : State.t -> step_result
(** Never raises for state-local conditions — heap exhaustion, undefined
    variables, arity mismatches, out-of-bounds accesses all come back as
    [Killed] with a structured reason.
    @raise Invalid_argument only on engine misuse (stepping a finished
    state; an unknown callee or undeclared hash in a malformed program). *)
