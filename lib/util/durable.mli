(** Crash-safe file writes.

    The run artifacts — [--metrics] manifests, ktest and metrics files,
    profile reports, [--samples-out] dumps — are written by {e atomic
    replace}: the content goes to [<path>.tmp], is flushed and fsynced, then
    [rename]d over [path].  A crash at any instant leaves either the old
    file or the new one — never a torn JSON that a strict parser then
    chokes on.  Plain [Unix] + [Stdlib]; no new dependencies. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] atomically replaces [path] with [s]: write to
    [path ^ ".tmp"], flush, fsync, close, rename, fsync the directory.  If
    the write fails, the tmp file is removed and the old [path] (if any)
    survives untouched.
    @raise Sys_error when the directory is missing or not writable. *)
