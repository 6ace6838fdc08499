(** Interval-with-stride abstract domain.

    A domain [{lo; hi; step}] over-approximates a set of integers as
    [{lo, lo+step, lo+2*step, ...} ∩ \[lo, hi\]].  The cache model uses it to
    enumerate the candidate concrete addresses of a symbolic pointer (array
    accesses produce exactly base + index*stride shapes); the solver uses it
    for cheap pruning.  All operations are over-approximations: the result
    domain contains every value the operation can produce on members of the
    argument domains. *)

type t = private { lo : int; hi : int; step : int }

val make : lo:int -> hi:int -> step:int -> t
(** Normalizes: clamps [hi] down to [lo + k*step], forces [step >= 1];
    requires [lo <= hi]. *)

val const : int -> t
val of_width : int -> t
(** [of_width w] is [\[0, 2^w - 1\]]. *)

val top : t
(** A wide non-negative range used when nothing better is known. *)

val is_const : t -> int option
val mem : t -> int -> bool
val cardinal : t -> int
val join : t -> t -> t

val meet : t -> t -> t option
(** [None] when the approximated sets are provably disjoint. *)

val unop : Ir.Expr.unop -> t -> t
val binop : Ir.Expr.binop -> t -> t -> t
val cmp : t
(** Domain of any comparison result: [\[0, 1\]]. *)

val refine_le : t -> int -> t option
(** [refine_le d c] intersects with [(-inf, c\]]; [None] if empty. *)

val refine_ge : t -> int -> t option

val iter : t -> ?limit:int -> (int -> unit) -> unit
(** Enumerates members in increasing order, at most [limit] (default 10^6). *)

val sample : t -> Util.Rng.t -> int
(** A uniformly random member. *)
