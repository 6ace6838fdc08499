(** Reconciling havoced hash values with packet constraints (§3.5, Fig. 3).

    During analysis every [castan_havoc] replaced a hash output with a fresh
    unconstrained symbol, leaving the path constraint talking about both the
    packet and the hash value.  Reconciliation runs the paper's three-step
    procedure per havoc:

    + solve for candidate hash values compatible with the path constraint;
    + invert each candidate through the rainbow table into candidate keys;
    + check with the solver that some key is compatible with the constraints
      on the packet, and commit the pair as new equalities.

    Havocs for which no (value, key) pair fits remain {e unreconciled}: the
    output is a partially-symbolic packet — the analysis still reports the
    expected bad performance, but the emitted workload cannot force that
    hash's behaviour (the NAT hash-table case in the paper's evaluation). *)

type havoc = {
  hv_pkt : int;  (** packet index the havoc occurred in *)
  hv_hash : string;  (** hash-function name *)
  hv_input : Ir.Expr.sexpr;  (** symbolic hash input (the packed key) *)
  hv_output : Ir.Expr.sym;  (** the fresh symbol that replaced the output *)
}

type outcome = {
  constraints : Ir.Expr.sexpr list;
      (** input path constraints plus committed reconciliation equalities *)
  reconciled : havoc list;
  unreconciled : havoc list;
}

val run :
  tables:(string -> Rainbow.t option) ->
  ?rng:Util.Rng.t ->
  pc:Solver.Pc.t ->
  havocs:havoc list ->
  unit ->
  outcome
(** Havocs are processed in packet order; constraints committed for earlier
    havocs restrict the later ones (the paper's related-keys NAT challenge
    arises exactly here).  Step 1 proposes at most 24 values per havoc.
    A havoc whose hash has no table is left unreconciled. *)
