(** Summary statistics and empirical CDFs for measurement results. *)

type cdf
(** An empirical cumulative distribution function over float samples. *)

val cdf_of_samples : float array -> cdf
(** Builds the empirical CDF (the input array is not modified). Requires a
    non-empty array. *)

val quantile : cdf -> float -> float
(** [quantile c q] with [q] in [\[0, 1\]]; [quantile c 0.5] is the median. *)

val median : cdf -> float

val median_of_samples : float array -> float
(** [median_of_samples a = median (cdf_of_samples a)], selected in O(n)
    on a copy instead of sorted ([a] is not modified).  Requires a
    non-empty array without NaNs. *)

val min_value : cdf -> float
val max_value : cdf -> float

val mean : float array -> float
val stddev : float array -> float

val median_int : int array -> int
(** Median of integer samples (lower median), selected in O(n) on a copy.
    Requires a non-empty array. *)
