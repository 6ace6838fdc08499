(** The device under test: one NF running over the simulated machine.

    Per packet, the DUT models the full DPDK receive/transmit path — a fixed
    instruction/cycle overhead, a descriptor-ring access, and a DMA write
    landing the frame in a rotating mbuf pool (which costs the mandatory
    DRAM access the paper discusses under DDIO) — then runs the NF through
    {!Ir.Compile} over flat memory, sending every data-structure access
    through the cache hierarchy and charging per-level latencies. *)

type t

val machine : ?slice_seed:int -> ?prefetch:bool -> unit -> Cache.Probe.machine
(** A fresh copy of the simulated machine every DUT runs on: the
    Xeon E5-2667v2 geometry, the CPU's hidden slice hash selected by
    [slice_seed] (default 0), and one fixed page placement.  The oracle
    cache model builds its ground truth from the same call. *)

val create : ?slice_seed:int -> ?prefetch:bool -> ?ddio:bool -> Nf.Nf_def.t -> t
(** A fresh DUT on a fresh {!machine}: cold caches, empty flow state.
    [prefetch] enables the next-line prefetcher; [ddio] makes the NIC's DMA
    write allocate into the cache instead of invalidating (Intel Data
    Direct I/O) — both off by default, matching the paper's model; the
    ablation experiments turn them on. *)

type sample = {
  cycles : int;  (** total, including the DPDK path *)
  instrs : int;  (** instructions retired, including the DPDK path *)
  l3_misses : int;  (** DRAM accesses *)
  ret : int;  (** the NF's verdict for the packet *)
}

val process : t -> Nf.Packet.t -> sample
(** Runs one packet through the DPDK path and the NF.  Once the DUT is
    warm this allocates only the returned sample: the compiled program,
    its execution context and the argument buffer belong to the DUT. *)

val process_burst : t -> Nf.Packet.t array -> sample array
(** DPDK-style burst receive: pushes a batch of packets through the
    compiled NF back to back.  Observationally identical to
    [Array.map (process t)] (pinned by qcheck). *)

val replay : t -> Workload.t -> samples:int -> sample array
(** Replays the workload (looping as needed) for [samples] packets,
    writing each {!process} sample straight into the result, and counts
    them in the [replay.packets] metric and every 32 of them in
    [replay.bursts]. *)

val overhead_instrs : int
(** The DPDK/driver path: 270 instructions... *)

val overhead_cycles : int
(** ...and 700 cycles per packet (the mandatory mbuf DRAM access adds the
    rest), calibrated so the NOP NF reproduces the
    paper's baselines (271 instructions retired, ≈3.45 Mpps). *)
