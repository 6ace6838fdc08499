(** Telemetry output destinations.

    Two sinks cover the deployment matrix:
    - {!null}: telemetry disabled.  Guaranteed allocation-free on the hot
      path — every operation on it is a physical-equality check followed by
      an immediate return, so a disabled pipeline is bit-identical to an
      uninstrumented one.
    - {!file}: one JSON object per line (JSONL), flushed on {!close}.  Used
      for the Chrome [trace_event] stream. *)

type t

val null : t

val file : string -> t
(** Opens [path ^ ".tmp"] for line-oriented output; {!close} fsyncs and
    renames it over [path], so [path] only ever holds a complete stream.
    @raise Sys_error when the path cannot be opened. *)

val active : t -> bool
(** [false] exactly for {!null}. *)

val write : t -> string -> unit
(** Appends one line (for {!file}; a no-op on {!null}). *)

val close : t -> unit
(** Flushes and closes a {!file}.  Idempotent. *)
