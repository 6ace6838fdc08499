(** The analysis driver: explore, rank, and return the most expensive states.

    Runs the engine over [n_packets] symbolic packets, following the paper's
    §3.1 loop: always work on the most promising state (per the searcher),
    greedily finish loop iterations, and when the budget runs out return the
    state with the highest cost together with the ranked runners-up.  The
    caller (the CASTAN core) then solves the winner's path constraint and
    reconciles its havocs into a concrete workload. *)

(** Every field is the caller's: the pipeline's values are
    [Castan.Analyze]'s. *)
type config = {
  n_packets : int;
  strategy : Searcher.strategy;
  geom : Cache.Geometry.t;  (** cycle costs of the potential-cost annotation *)
  m : int;  (** loop bound for potential-cost annotation *)
  instr_budget : int;
      (** total executed instructions across all states: the exploration
          budget *)
  time_budget : float;
      (** safety deadline, seconds of wall time.  A run it cuts short is
          degraded and counted by {!deadline_cuts}. *)
  max_completed : int;  (** stop after this many full-length paths *)
}

type stats = {
  explored : int;  (** states whose execution advanced at least once *)
  forks : int;
  killed : int;
  kill_reasons : (string * int) list;
      (** kill counts per {!Exec.reason_label}, sorted by label *)
  executed_instrs : int;
  wall_time : float;
  degraded : bool;
      (** the run was budget-truncated with states still pending, or at
          least one state died of a fault ({!Exec.reason_is_fault}) *)
}

type result = {
  ranked : State.t list;
      (** all surviving states, complete or not, highest cost first *)
  completed : State.t list;  (** states that processed every packet *)
  stats : stats;
}

val run :
  Ir.Cfg.t -> mem:Ir.Expr.sexpr Ir.Memory.t -> cache:Cache.Model.t -> config -> result
(** Exploration stops once [instr_budget] instructions have executed,
    checked between execution slices, so the result is a function of the
    program and the config.  The safety deadline is also polled every ~1k
    executed instructions {e inside} a slice (a single 20k-instruction
    slice cannot overshoot [time_budget]).  State-local faults (heap
    exhaustion, out-of-bounds pointers, undefined variables) kill the
    offending state — accounted in [stats.kill_reasons] — rather than
    raising out of the driver. *)

val deadline_cuts : unit -> int
(** Process-lifetime count of runs the safety deadline cut short with
    states still pending (atomic — pool workers included).  The CLI maps
    a nonzero count to exit code 2: such a result depends on host speed. *)
