(** A minimal leveled logger for the CLI's [--log-level].

    Messages go to stderr so they never disturb the reproduced tables and
    figures on stdout.  The default level is {!Quiet}: an un-flagged run
    prints exactly what it printed before the telemetry layer existed. *)

type level = Quiet | Info | Debug

val set_level : level -> unit

val info : ('a, unit, string, unit) format4 -> 'a
(** Printed at [Info] and [Debug]; prefixed ["castan: "], newline-terminated
    and flushed, whole, under a lock: lines from concurrent {!Util.Pool}
    tasks interleave but never tear. *)

val debug : ('a, unit, string, unit) format4 -> 'a
(** Printed at [Debug] only; prefixed ["castan[debug]: "]. *)
