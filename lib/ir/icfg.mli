(** The interprocedural call order.

    The interprocedural CFG augments each function's flat CFG with call
    edges; potential costs are annotated over it during pre-processing
    (§3.4), callees before callers.  NFIR forbids recursion — the call
    graph must be a DAG — which {!topo_order} verifies. *)

val topo_order : Cfg.t -> string list
(** All function names, callees before callers; the entry function is
    last.
    @raise Invalid_argument if the call graph is recursive or a called
    function is undefined. *)
