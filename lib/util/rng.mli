(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    experiments, tests and benchmarks are reproducible from a seed.  The
    implementation is SplitMix64, which has a 64-bit state, passes BigCrush,
    and supports cheap splitting into independent streams. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] returns a new generator statistically independent of [t];
    [t] itself advances. *)

val split_ix : t -> int -> t
(** [split_ix t ix] derives the [ix]-th child stream of [t]'s current state
    {e without advancing} [t].  Because the child depends only on
    [(state, ix)], a loop that draws its per-iteration generator as
    [split_ix root i] produces the same streams no matter how the iteration
    space is sharded across workers — the discipline {!Pool} relies on. *)

val floats_ix : t -> int -> float array
(** [floats_ix t n] is [Array.init n (fun ix -> float (split_ix t ix))]:
    the first draw of each index-keyed child, computed without building the
    children or advancing [t], and allocating only the result. *)

val copy : t -> t
(** [copy t] duplicates the current state (both copies then produce the same
    stream). *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
