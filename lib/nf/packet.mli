(** Concrete packets: the 5-tuple the evaluation NFs process.

    The testbed serializes these to real PCAP frames; the analysis extracts
    them from solver models of a path constraint. *)

type t = {
  src_ip : int;
  dst_ip : int;
  proto : int;  (** 6 = TCP, 17 = UDP *)
  src_port : int;
  dst_port : int;
}

val tcp : int
val udp : int

val make :
  ?src_ip:int -> ?dst_ip:int -> ?proto:int -> ?src_port:int -> ?dst_port:int ->
  unit -> t
(** Defaults: 10.0.0.1 -> 192.168.1.1, UDP 1000 -> 80. *)

val field : t -> Ir.Expr.field -> int
val with_field : t -> Ir.Expr.field -> int -> t

val args_for : Ir.Cfg.func -> t -> int list
(** Arguments for an NF entry function, in its parameter order (parameters
    are named after packet fields). *)

val fields_for : Ir.Cfg.func -> Ir.Expr.field array
(** The packet fields behind an entry function's parameters, resolved once
    (each parameter is named after a field). *)

val fill_args : Ir.Expr.field array -> t -> int array -> unit
(** [fill_args fields p argv] writes [field p fields.(i)] into [argv.(i)] —
    the allocation-free counterpart of {!args_for} for the replay path. *)

val of_model : Solver.Solve.Model.t -> n:int -> t list
(** Extracts the [n] packets of a satisfying model; unconstrained fields
    default to 0 and are then normalized to benign values (proto becomes UDP
    when the model left it 0). *)

val flow_key : t -> int
(** Canonical 5-tuple flow identity (for flow counting in workloads). *)

val ip_to_string : int -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
