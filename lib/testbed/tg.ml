type measurement = {
  workload : string;
  latencies_ns : float array;
  samples : Dut.sample array;
}

(* TG-side fixed path: wire + NIC + DMA + DPDK on both ends, observed by the
   hardware timestamps.  A right-skewed distribution around 4.05µs puts the
   NOP median at ≈4.3µs, as in the paper's figures.  [u] is uniform in
   [0, 1). *)
let[@inline] tg_base_ns u = 3980.0 +. (-50.0 *. log (1.0 -. u))

(* The clock of the machine every DUT runs on ({!Dut.machine}). *)
let clock_ghz = Cache.Geometry.xeon_e5_2667v2.clock_ghz

let measure ?(seed = 42) ?(samples = 20_000) ?prefetch ?ddio ?slice_seed nf w =
  (* Packet [i]'s TG-path noise is the first draw of its own index-derived
     stream ({!Util.Rng.split_ix}), so the latency array depends only on
     (seed, i) — not on how many draws preceded it — which keeps
     measurements identical whether workloads run serially or on pool
     workers. *)
  let root = Util.Rng.create (0x7b + seed) in
  let dut_samples =
    Dut.replay (Dut.create ?slice_seed ?prefetch ?ddio nf) w ~samples
  in
  (* The uniform draws become the latencies in place. *)
  let latencies = Util.Rng.floats_ix root (Array.length dut_samples) in
  for i = 0 to Array.length latencies - 1 do
    latencies.(i) <-
      tg_base_ns latencies.(i)
      +. (float_of_int dut_samples.(i).Dut.cycles /. clock_ghz)
  done;
  { workload = w.Workload.name; latencies_ns = latencies; samples = dut_samples }

let measure_all ?seed ?samples nf pairs =
  (* One pool task per workload.  The DUT is stateful across packets (cache
     warming), so the parallel grain is a whole measurement, never slices of
     one; each task builds its own DUT from the same seeds. *)
  Util.Pool.map
    (fun (label, w) ->
      Obs.Trace.with_span "measure"
        ~args:
          [
            ("workload", Obs.Json.Str label);
            ("nf", Obs.Json.Str nf.Nf.Nf_def.name);
          ]
        (fun () -> (label, measure ?seed ?samples nf w)))
    pairs

let latency_cdf m = Util.Stats.cdf_of_samples m.latencies_ns

let cycles m = Array.map (fun (s : Dut.sample) -> float_of_int s.cycles) m.samples
let cycles_cdf m = Util.Stats.cdf_of_samples (cycles m)
let median_cycles m = Util.Stats.median_of_samples (cycles m)

let median_latency_ns m = Util.Stats.median_of_samples m.latencies_ns

let median_instrs m =
  Util.Stats.median_int (Array.map (fun (s : Dut.sample) -> s.instrs) m.samples)

let median_l3_misses m =
  Util.Stats.median_int
    (Array.map (fun (s : Dut.sample) -> s.l3_misses) m.samples)

let nop_baseline ?(seed = 42) ?(samples = 20_000) () =
  let nop = Nf.Registry.nop () in
  let m = measure ~seed ~samples nop (Traffic.one_packet ()) in
  { m with workload = "NOP" }

let deviation_from_nop_ns m ~nop = median_latency_ns m -. median_latency_ns nop

(* Per-packet service times of a measurement, in seconds, stored straight
   into a float array (no boxed float per sample). *)
let service_times m =
  let service_s = Array.create_float (Array.length m.samples) in
  Array.iteri
    (fun i (s : Dut.sample) ->
      service_s.(i) <- float_of_int s.cycles /. clock_ghz /. 1e9)
    m.samples;
  service_s

(* Deterministic arrivals at [rate_pps] against recorded service times;
   finite descriptor queue.  The backlog of departure deadlines lives in a
   fixed circular float array (never more than [queue_depth] entries), not a
   [Queue.t] of boxed floats — the bisection in {!max_throughput_mpps} runs
   this loop a dozen times over every recorded sample, so per-packet
   allocation is what the experiment ends up timing.  [max_dropped < n]
   turns it into a feasibility check with an early exit: the moment the drop
   count exceeds the budget, the verdict is known.  [sojourn_ns], when
   given, receives each accepted packet's sojourn time (queueing + service)
   in arrival order.  Returns the drop count, or [max_dropped + 1] on early
   exit. *)
let drops_at_rate ~queue_depth ~service_s ?(max_dropped = max_int) ?sojourn_ns
    rate_pps =
  let n = Array.length service_s in
  let interval = 1.0 /. rate_pps in
  let dropped = ref 0 in
  (* [busy_until] is when the server frees up after finishing everything
     accepted so far; the ring holds the deadlines still waiting or in
     service, oldest at [head]. *)
  let busy_until = ref 0.0 in
  let ring = Array.make (queue_depth + 1) 0.0 in
  let head = ref 0 and len = ref 0 in
  let cap = queue_depth + 1 in
  let k = ref 0 in
  while !k < n && !dropped <= max_dropped do
    let now = float_of_int !k *. interval in
    (* Retire everything that finished by now. *)
    while !len > 0 && ring.(!head) <= now do
      head := if !head + 1 = cap then 0 else !head + 1;
      decr len
    done;
    if !len >= queue_depth then incr dropped
    else begin
      let start = if !busy_until > now then !busy_until else now in
      let finish = start +. service_s.(!k) in
      busy_until := finish;
      let tail = !head + !len in
      ring.(if tail >= cap then tail - cap else tail) <- finish;
      incr len;
      match sojourn_ns with
      | Some out -> out.(!k - !dropped) <- (finish -. now) *. 1e9
      | None -> ()
    end;
    incr k
  done;
  !dropped

(* Per-packet sojourn times at a fixed offered rate: what a partially
   adversarial stream does to everyone behind it in the descriptor queue
   (head-of-line blocking, §5.5). *)
let latency_under_load ?(queue_depth = 512) ~rate_mpps m =
  let service_s = service_times m in
  let n = Array.length service_s in
  let sojourn_ns = Array.make n 0.0 in
  let dropped =
    drops_at_rate ~queue_depth ~service_s ~sojourn_ns (rate_mpps *. 1e6)
  in
  let measured = Array.sub sojourn_ns 0 (n - dropped) in
  let loss = float_of_int dropped /. float_of_int n in
  (Util.Stats.cdf_of_samples measured, loss)

let max_throughput_mpps ?(queue_depth = 512) ?(loss_target = 0.01) m =
  let service_s = service_times m in
  let n = Array.length service_s in
  (* The largest drop count whose fraction still passes the target, under
     the same float division the loss fraction would go through — so the
     early-exit feasibility check below agrees bit-for-bit with comparing
     [loss_at_rate] against [loss_target]. *)
  let max_dropped =
    let d = ref (int_of_float (loss_target *. float_of_int n)) in
    while float_of_int (!d + 1) /. float_of_int n <= loss_target do incr d done;
    while !d > 0 && float_of_int !d /. float_of_int n > loss_target do
      decr d
    done;
    !d
  in
  let ok rate =
    drops_at_rate ~queue_depth ~service_s ~max_dropped (rate *. 1e6)
    <= max_dropped
  in
  (* NIC line rate bounds the search; bisect to 0.01 Mpps. *)
  let lo = ref 0.05 and hi = ref 14.88 in
  if ok !hi then !hi
  else begin
    while !hi -. !lo > 0.01 do
      let mid = (!lo +. !hi) /. 2.0 in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  end
