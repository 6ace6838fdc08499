(** The traffic generator / sink (the paper's MoonGen box).

    Latency experiments keep at most one outstanding packet, so a packet's
    end-to-end latency is the fixed TG↔DUT path (wire, NIC timestamping, DMA
    — modeled as a seeded noise distribution around 4µs, matching the NOP
    baseline of Fig. 4) plus the DUT's processing time.  Dropped packets are
    still forwarded back and measured, as in §5.1.  A measurement replays
    the whole workload, in order, on one fresh DUT, so caches and flow
    state carry over from packet to packet as on the real testbed.

    Throughput experiments find the highest offered rate at which the DUT
    drops less than 1% of packets: the replay's recorded per-packet service
    times feed a deterministic-arrival, finite-queue simulation, and the
    rate is bisected. *)

type measurement = {
  workload : string;
  latencies_ns : float array;  (** per sampled packet *)
  samples : Dut.sample array;
}

val measure :
  ?seed:int -> ?samples:int -> ?prefetch:bool -> ?ddio:bool ->
  ?slice_seed:int -> Nf.Nf_def.t -> Workload.t -> measurement
(** {!Dut.replay} on a fresh {!Dut.create} for [samples] packets (default
    20,000).  [prefetch] and [ddio] configure the DUT machine (both default
    off); [slice_seed] selects the CPU's hidden slice hash (a different
    value models running the workload on a different processor model).
    Packet [i]'s TG-path noise is drawn from an index-derived RNG stream,
    so the result is a pure function of the arguments. *)

val measure_all :
  ?seed:int -> ?samples:int -> Nf.Nf_def.t -> (string * Workload.t) list ->
  (string * measurement) list
(** [measure_all nf [(label, w); ...]] measures each labeled workload —
    one {!Util.Pool} task per workload, each wrapped in a ["measure"] trace
    span — and returns results in input order.  Each task builds its own
    DUT from the same seeds, so results are identical to mapping {!measure}
    serially. *)

val latency_cdf : measurement -> Util.Stats.cdf
val cycles_cdf : measurement -> Util.Stats.cdf

val median_cycles : measurement -> float
(** [Util.Stats.median (cycles_cdf m)], selected without sorting. *)

val median_latency_ns : measurement -> float
val median_instrs : measurement -> int
val median_l3_misses : measurement -> int

val nop_baseline : ?seed:int -> ?samples:int -> unit -> measurement
(** The NOP NF under its own single-packet workload — the baseline curve in
    every latency figure. *)

val deviation_from_nop_ns : measurement -> nop:measurement -> float
(** Median latency deviation (Table 5). *)

val latency_under_load :
  ?queue_depth:int -> rate_mpps:float -> measurement -> Util.Stats.cdf * float
(** Per-packet sojourn-time CDF (ns, queueing included) and loss fraction at
    a fixed offered rate — the head-of-line-blocking view of §5.5's
    partially-adversarial-traffic discussion. *)

val drops_at_rate :
  queue_depth:int ->
  service_s:float array ->
  ?max_dropped:int ->
  ?sojourn_ns:float array ->
  float ->
  int
(** [drops_at_rate ~queue_depth ~service_s rate_pps] walks a
    [queue_depth]-descriptor queue fed at [rate_pps] with deterministic
    arrivals, packet [k] taking [service_s.(k)] seconds, and returns how
    many packets found the queue full.  With [max_dropped], the walk stops
    once the count exceeds it and returns [max_dropped + 1].  [sojourn_ns],
    when given (at least as long as [service_s]), receives each accepted
    packet's sojourn time in ns, in arrival order.  The one queue walk
    behind {!latency_under_load} and {!max_throughput_mpps}. *)

val max_throughput_mpps :
  ?queue_depth:int -> ?loss_target:float -> measurement -> float
(** Bisects the offered rate over the measured service times; defaults:
    512-descriptor queue, 1% loss. *)
