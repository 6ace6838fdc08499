(** Rainbow tables (Oechslin time-memory trade-off) over flow-key spaces.

    A key space enumerates the keys the table covers; a {e tailored} key
    space restricts enumeration to keys likely to satisfy packet constraints
    (the paper's example: populate the table only with keys that assume UDP,
    since the IP-protocol constraint would otherwise reject ≈99% of
    entries). *)

type keyspace = private {
  ks_name : string;
  count : int;  (** a power of two *)
  key_of_index : int -> int;  (** injective on [\[0, count)] *)
}

val keyspace :
  name:string -> count:int -> key_of_index:(int -> int) -> keyspace
(** Reduction maps hash values into the key space with a mask, so the key
    count must be a power of two.
    @raise Invalid_argument if [count] is not a positive power of two. *)

type t

val build : hash:Ir.Hashes.t -> chains:int -> chain_len:int -> keyspace -> t
(** Builds [chains] chains of [chain_len] steps (at most one chain per key).
    Reduction functions map a hash value back into the key space, salted per
    column. *)

val build_exhaustive : hash:Ir.Hashes.t -> keyspace -> t
(** The brute-force variant the paper combines with rainbow tables: a full
    inverse index of the key space.  Only sensible for small spaces. *)

val invert : t -> int -> int list
(** [invert t h] returns candidate keys [k] with [hash k = h] (verified
    before being returned).  Empty when the table has no coverage of [h].

    The order is part of the contract, since reconciliation commits the
    first key the solver accepts.  An exhaustive table lists the keys in
    key-space order.  A chain table lists them by descending column (the
    column at which [h] is assumed to sit), then in bucket order (the
    chains ending at that column's endpoint, last built first), taking the
    first key of each chain that hashes to [h], with duplicates dropped. *)

val coverage_sample : t -> samples:int -> float
(** Fraction of [samples] uniformly drawn hash values that {!invert}
    recovers; diagnostics for table quality. *)
