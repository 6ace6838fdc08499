(** The analysis driver: explore, rank, and return the most expensive states.

    Runs the engine over [n_packets] symbolic packets, following the paper's
    §3.1 loop: always work on the most promising state (per the searcher),
    greedily finish loop iterations, and when the budget runs out return the
    state with the highest cost together with the ranked runners-up.  The
    caller (the CASTAN core) then solves the winner's path constraint and
    reconciles its havocs into a concrete workload. *)

type config = {
  n_packets : int;
  strategy : Searcher.strategy;
  costs : Costs.t;
  m : int;  (** loop bound for potential-cost annotation *)
  hash_bits : string -> int;
  packet_budget : int;  (** raw instructions per packet per state *)
  instr_budget : int;  (** total executed instructions across all states *)
  time_budget : float;  (** seconds of wall time *)
  max_completed : int;  (** stop after this many full-length paths *)
  max_states : int;
      (** watchdog: pending-state budget, 0 = unlimited.  When the queue
          exceeds it, the deepest pending states are killed (reason
          ["watchdog-states"]) until it fits. *)
}

val default_config : ?n_packets:int -> Costs.t -> config
(** 30 packets, castan searcher, M = 2, 5M total instructions, 30s,
    watchdog off. *)

type stats = {
  explored : int;  (** states whose execution advanced at least once *)
  forks : int;
  killed : int;
  kill_reasons : (string * int) list;
      (** kill counts per {!Exec.reason_label}, sorted by label *)
  executed_instrs : int;
  wall_time : float;
  degraded : bool;
      (** the run was budget-truncated with states still pending, at least
          one state died of a fault ({!Exec.reason_is_fault}), or the
          resource watchdog pruned states *)
  watchdog_kills : int;
      (** states killed by the resource watchdog (the ["watchdog-states"]
          entry of [kill_reasons]).  The kill set is deterministic in the
          budgets: deepest pending states first, depth ordered by (packet,
          steps, state id). *)
}

type result = {
  best : State.t option;  (** highest-cost state seen (complete or not) *)
  ranked : State.t list;  (** all surviving states, best first *)
  completed : State.t list;  (** states that processed every packet *)
  annot : Cost.t;
  stats : stats;
}

val run :
  Ir.Cfg.t -> mem:Ir.Expr.sexpr Ir.Memory.t -> cache:Cache.Model.t -> config -> result
(** Exploration is strictly bounded: the wall-clock budget is polled every
    ~1k executed instructions {e inside} a slice (a single 20k-instruction
    slice cannot overshoot [time_budget]), and state-local faults (heap
    exhaustion, out-of-bounds pointers, undefined variables) kill the
    offending state — accounted in [stats.kill_reasons] — rather than
    raising out of the driver. *)

val watchdog_kill_total : unit -> int
(** Process-lifetime watchdog kills summed across analyses (atomic — pool
    workers included).  The CLI maps a nonzero total to exit code 2:
    budget exhaustion degrades, it never aborts. *)

val reset_watchdog_total : unit -> unit
