(** Zipfian sampler.

    The paper's "Zipfian" workload draws flows from a Zipf distribution with
    exponent [s = 1.26] (fitted to a university traffic capture).  This module
    samples ranks [1..n] with probability proportional to [1 / rank^s], using
    inverse-CDF lookup over a precomputed table. *)

type t

val create : s:float -> n:int -> t
(** [create ~s ~n] prepares a sampler over ranks [1..n] with exponent [s].
    Requires [n >= 1] and [s > 0]. *)

val sample : t -> Rng.t -> int
(** [sample t rng] draws a rank in [\[1, n\]]. Rank 1 is the most likely. *)

val prob : t -> int -> float
(** [prob t rank] is the probability of [rank]. *)
