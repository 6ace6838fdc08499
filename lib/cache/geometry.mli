(** Cache-hierarchy geometry and cycle costs.

    The default instance mirrors the paper's Intel Xeon E5-2667v2 (Fig. 1):
    L1d 32KiB 8-way, L2 256KiB 8-way, L3 25600KiB 20-way split into 8 slices
    selected by an undocumented hash of the physical address, 64-byte lines,
    3.3GHz. *)

type level = { size_kib : int; ways : int }

type t = {
  line : int;  (** line size in bytes *)
  l1d : level;
  l2 : level;
  l3 : level;
  l3_slices : int;
  lat_l1 : int;  (** load-to-use latencies, cycles *)
  lat_l2 : int;
  lat_l3 : int;
  lat_dram : int;
  clock_ghz : float;  (** core clock: the testbed turns cycles into time *)
}

val xeon_e5_2667v2 : t

val op_cycles : int -> int
(** Cycles to retire [weight] non-memory instructions: 3/5 of a cycle each
    on the superscalar core, at least 1 (§3.3's calibrated CPI). *)

val sets : t -> level -> int
(** Number of sets of a non-sliced level. *)

val l3_sets_per_slice : t -> int
val l3_assoc : t -> int
(** Associativity [α] of the L3: the contention-set spill threshold. *)
