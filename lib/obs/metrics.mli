(** Process-wide registry of monotonic counters.

    Metrics are ambient: instrumented modules create their counters once
    at module initialisation and bump them unconditionally-cheaply.  Recording is gated on {!active}: when
    inactive (the default), {!incr} reduces to a single [ref] read and the
    snapshot stays all-zero, so an un-instrumented run is bit-identical.

    Counters are identified by dotted names ([solver.verdict.sat],
    [cache.model.miss], [symbex.kills.heap-exhausted], ...); creating the
    same name twice returns the same counter.

    Each counter is an [int Atomic.t], so {!Util.Pool} tasks bump the
    shared counters directly: a sum does not depend on the order in which
    tasks ran, and {!snapshot} is the same for every job count. *)

type counter

val set_active : bool -> unit
val active : unit -> bool

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val snapshot : unit -> Json.t
(** [{"counters": {name: value, ...}}], sorted by name.  Every registered
    counter appears (value 0 when untouched). *)

val reset : unit -> unit
(** Zeroes every registered counter (the registry itself survives so
    module-level counters stay valid).  Does not change {!active}. *)
