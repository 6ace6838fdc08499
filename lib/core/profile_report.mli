(** Basic-block aggregation of {!Obs.Profile} samples, and the two
    surfaces the profiler is consumed through: a top-N hot-block table and
    the block JSON that [castan profile --metrics] embeds in its run
    manifest.

    The profiler attributes at [(func, pc)] granularity; this module folds
    every site into the basic block holding it ({!Ir.Cfg.leaders}).
    Pseudo-functions the executors use for runtime overhead (["<dpdk>"])
    are treated as a single block at pc 0.

    Everything emitted here is derived from deterministic integer samples,
    so two identical runs produce byte-identical tables and JSON blocks;
    wall-clock timers appear only under ["timers_s"] in the JSON. *)

type row = {
  func : string;
  block : int;  (** leader pc of the block ([0] for pseudo-functions) *)
  stats : Obs.Profile.stats;
}

val rows : Ir.Cfg.t -> row list
(** Aggregates the current {!Obs.Profile} sites into blocks, sorted by
    cycles (descending), ties broken by [(func, block)]. *)

val total_cycles : row list -> int

val table : nf:string -> ?top:int -> Ir.Cfg.t -> string
(** The hot-block table (default [top] 20): cycles, share of total,
    instructions, loads/stores and the L1/L2/L3/DRAM mix per block. *)

val to_json : nf:string -> Ir.Cfg.t -> Obs.Json.t
(** [{"schema_version", "nf", "total_cycles", "timers_s", "blocks": [...]}]
    with one object per block, in [rows] order; the blocks' [cycles] sum
    to [total_cycles]. *)
