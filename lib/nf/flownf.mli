(** Shared scaffolding for the stateful flow-processing NFs (NAT, LB).

    Packs flow keys from header fields, emits the [castan_havoc] hash
    annotation when the underlying table hashes, and provides the tailored
    rainbow-table key spaces that reconciliation needs (§3.5: "populate the
    rainbow table with values that are more likely to fit the
    constraints"). *)

val fwd_key_expr : Ir.Dsl.e
(** [(src_ip << 16) | src_port] — the forward-flow key (the internal
    endpoint). *)

val ret_key_expr : Ir.Dsl.e
(** [(1 << 49) | (dst_ip << 16) | dst_port] — the NAT return-flow key,
    sharing the external endpoint with the forward key (the related-keys
    challenge of §5.4). *)

val ret_key_tag : int

val hash_stmts :
  Flowtable.t -> dst:string -> key:Ir.Dsl.e -> Ir.Ast.stmt list
(** [castan_havoc(key, dst, hash)] when the table hashes, else [dst <- 0]. *)

val keyspaces :
  Flowtable.t -> with_ret_keys:bool -> (string * Hashrev.Rainbow.keyspace) list
(** Key spaces tailored to this NF's reachable keys; forward keys only, or
    alternating forward/return keys for the NAT. *)

val proto_guard : Ir.Ast.stmt
(** Drop (return 0) anything that is not TCP or UDP. *)
