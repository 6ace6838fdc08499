(** Deterministic cost-attribution profiler.

    Where {!Metrics} answers "how much, in total", this module answers
    "where" a concrete execution spent its cycles: the closure-compiled DUT
    executor (and the reference interpreter tests compare it against) marks
    the source location it is about to execute with {!enter}, and every
    cost source — instruction retirement, DUT memory latencies, the DPDK
    path's fixed charge — attributes to that ambient location.  The
    symbolic engine attributes nothing: its modelled charges are
    predictions, kept apart from the replay they are compared with.
    Samples accumulate per [(func, pc)]; {!Castan.Profile_report}
    aggregates them to basic blocks for the hot-block table and the
    [profile] section of [castan profile --metrics].

    Like the rest of [lib/obs], the profiler is ambient and gated: when
    disabled (the default) every operation reduces to a single [ref] read,
    allocates nothing, and analysis results are bit-identical to a build
    without the profiler.  When enabled, everything recorded is an integer
    derived from the deterministic cost model — never wall time — so two
    runs with the same NF, seed and workload produce byte-identical
    attribution.  Wall time lives only in the separate named {!add_timer}
    buckets (solver, symbex, replay), which reports keep out of the
    deterministic outputs. *)

type level = L1 | L2 | L3 | Dram

type stats = {
  mutable cycles : int;  (** total attributed cycles (retire + memory) *)
  mutable instrs : int;  (** weighted instructions retired *)
  mutable loads : int;
  mutable stores : int;
  mutable l1 : int;  (** accesses served per level *)
  mutable l2 : int;
  mutable l3 : int;
  mutable dram : int;
}

val set_enabled : bool -> unit

val enabled : unit -> bool
(** True when {!set_enabled} turned the profiler on and the caller runs on
    the main domain.  The tables are not domain-safe, and no profiled code
    runs on a {!Util.Pool} worker ([castan profile] replays on the main
    domain), so every hook records nothing elsewhere. *)

val reset : unit -> unit
(** Drops every site and timer (and detaches the current site). Does not
    change {!enabled}. *)

val enter : func:string -> pc:int -> unit
(** Makes [(func, pc)] the ambient attribution site.  Executors call this
    before each instruction; pseudo-functions (["<dpdk>"]) attribute
    runtime overhead outside NF code. *)

val add_retire : weight:int -> unit
(** [weight] retired instructions at the calibrated 3/5 cycles-per-weight
    CPI (rounded to nearest; the same ratio as [Cache.Geometry.op_cycles])
    — the concrete executors' per-instruction charge. *)

val add_exec : instrs:int -> cycles:int -> unit
(** An exact charge of [instrs] instructions costing [cycles] — the DUT's
    fixed per-packet DPDK overhead. *)

val add_access : write:bool -> level -> cycles:int -> unit
(** A concrete memory access served at [level], costing [cycles] — the
    DUT's cache-hierarchy hook. *)

val add_timer : string -> float -> unit
(** Accumulates wall seconds in a named bucket ([solver], [symbex],
    [replay]).  Kept separate from sites so the deterministic outputs never
    contain time. *)

val sites : unit -> ((string * int) * stats) list
(** Snapshot of every attribution site, sorted by [(func, pc)]; the [stats]
    are copies, safe to mutate (reports aggregate them into blocks). *)

val timers : unit -> (string * float) list
(** Named wall-time buckets, sorted by name. *)

val total_cycles : unit -> int
(** Sum of [cycles] over all sites. *)
