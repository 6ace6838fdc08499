(** Interprocedural control-flow graph extraction.

    The ICFG augments each function's flat CFG with call edges; it is the
    structure over which potential costs are annotated during pre-processing
    (§3.4).  NFIR forbids recursion — the call graph must be a DAG — which
    {!make} verifies. *)

type t

val make : Cfg.t -> t
(** @raise Invalid_argument if the call graph is recursive or a called
    function is undefined. *)

val program : t -> Cfg.t

val callees : t -> string -> string list
(** Functions directly called from [f] (deduplicated). *)

val topo_order : t -> string list
(** All function names, callees before callers; the entry function is
    last. *)
