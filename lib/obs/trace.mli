(** Hierarchical wall-clock spans, emitted as Chrome [trace_event] objects
    (one per line — JSONL).

    Every event is a complete ("ph":"X") event with [ts]/[dur] in
    microseconds relative to {!set_sink}; Chrome's tracing UI and Perfetto
    reconstruct the span tree from the containment of [ts, ts+dur] ranges on
    one pid/tid, so nesting needs no explicit parent links.  The [tid] is
    the emitting domain's id plus one: {!Util.Pool} workers write to the
    same sink as the main domain (under a lock, one whole line at a time),
    each on a track of its own.  Wrap the stream
    in [\[...\]] (e.g. [jq -s .]) to obtain the JSON-array form the viewers
    load directly.

    With the {!Sink.null} sink (the default) the hot path allocates
    nothing: {!enter} returns a preallocated dummy span and {!exit} detects
    it by physical equality. *)

type span

val set_sink : Sink.t -> unit
(** Installs the destination and re-bases the trace clock.  The previous
    sink is closed. *)

val enabled : unit -> bool

val enter : ?args:(string * Json.t) list -> string -> span
val exit : span -> float
(** Closes the span, emits its event, and returns its duration in seconds
    (0. when tracing is disabled). *)

val with_span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Exception-safe {!enter}/{!exit} pair; when disabled it is exactly
    [f ()]. *)

val timed : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but {e always} measures and returns the duration in
    seconds, emitting the span only when enabled — the single timing source
    for code that must report wall time whether or not tracing is on
    (e.g. the harness's [\[id done in Ns\]] trailer). *)

val instant : ?args:(string * Json.t) list -> string -> unit
(** A zero-duration marker event ("ph":"i"). *)

val depth : unit -> int
(** Currently-open span count, summed over domains (0 when balanced);
    tests use it to assert well-formed nesting. *)

val close : unit -> unit
(** Closes the current sink and reverts to {!Sink.null}. *)
