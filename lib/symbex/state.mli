(** Symbolic execution states.

    A state is one partially-explored execution of the NF over a sequence of
    symbolic packets: register environments per frame, symbolic memory, the
    path constraint, the cache-model state, accumulated havoc records and
    per-packet performance metrics.  All components are persistent, so
    forking at a branch is O(1). *)

module Smap : Map.S with type key = string

type metrics = {
  instrs : int;  (** weighted instructions retired *)
  loads : int;
  stores : int;
  l3_misses : int;  (** DRAM accesses predicted by the cache model *)
  cycles : int;
}

val zero_metrics : metrics
val pp_metrics : Format.formatter -> metrics -> unit

type frame = {
  func : Ir.Cfg.func;
  pc : int;
  env : Ir.Expr.sexpr Smap.t;
  ret_to : string option;
}

type t = {
  program : Ir.Cfg.t;
  frame : frame;
  stack : frame list;
  mem : Ir.Expr.sexpr Ir.Memory.t;
  pcs : Solver.Pc.t;  (** path constraints *)
  cache : Cache.Model.t;
  pkt : int;  (** index of the packet currently being processed *)
  n_packets : int;
  finished : bool;  (** all [n_packets] have been processed *)
  done_metrics : metrics list;  (** completed packets, most recent first *)
  cur : metrics;
  havocs : (int * string * Ir.Expr.sexpr * Ir.Expr.sym) list;
      (** (packet, hash, input, fresh output), newest first *)
  steps : int;  (** raw instructions executed for the current packet *)
  id : int;
}

val packet_sym : int -> Ir.Expr.field -> Ir.Expr.sexpr

val reset_ids : unit -> unit
(** Resets this domain's state-id counter.  Called by [Core.Analyze.run] at
    the start of every analysis so ids depend only on the NF, not on what
    was explored before (or concurrently on other pool workers). *)

val fresh_id : unit -> int
(** The next id of this domain's counter: {!initial} and
    [Exec]'s forked children take theirs from it.  An id only labels the
    [symbex.slice] and [symbex.packet_done] trace spans. *)

val initial :
  Ir.Cfg.t -> cache:Cache.Model.t -> n_packets:int -> mem:Ir.Expr.sexpr Ir.Memory.t -> t
(** The entry function's parameters must be named after packet fields
    ([src_ip], [dst_ip], [proto], [src_port], [dst_port]); each is bound to
    the corresponding symbol of packet 0.
    @raise Invalid_argument on a parameter that is not a field name. *)

val add_pc : t -> Ir.Expr.sexpr -> t
(** Push a path constraint ({!Solver.Pc.add}: trivially-true constants and
    constraints already present structurally are dropped). *)

val start_packet : t -> t
(** Begin processing the next symbolic packet: archive the current packet's
    metrics and re-enter the entry function on fresh symbols.  Sets
    [finished] instead when all packets are done. *)

val current_cost : t -> int
(** Cycles consumed so far across all packets (the "current cost"). *)

val potential : t -> Cost.t -> int
(** The §3.4 heuristic: max cycles still obtainable — from the current
    position to the entry's return (through the call stack), plus a full
    worst-case execution for every remaining packet. *)

val priority : t -> Cost.t -> int
(** [current_cost + potential]: the searcher's ranking key. *)

val all_metrics : t -> metrics list
(** Per-packet metrics, oldest first, including the in-progress packet. *)
