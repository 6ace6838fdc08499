(* The replay pipeline's contracts (DESIGN.md §12): a burst is observably
   the same as per-packet processing, and the superblock-fused compiled
   executor agrees with the reference interpreter ({!Ir.Interp}) on budget
   exhaustion and on per-instruction profile attribution. *)

let qtest = QCheck_alcotest.to_alcotest

let replay_nfs = [ "lb-hash-ring"; "nat-hash-ring"; "lpm-btrie" ]

let workload_for nf_name =
  let nf = Nf.Registry.find nf_name in
  let rng = Util.Rng.create 0x5eed in
  {
    Testbed.Workload.name = "test-replay";
    packets =
      Array.init 64 (fun _ -> nf.Nf.Nf_def.shape (Testbed.Traffic.random_packet rng));
  }

(* ---------------- burst ≡ per-packet ---------------- *)

(* process_burst on one DUT must equal Array.map process on another, for any
   packet sequence: the burst loop shares the DUT's warmed caches exactly
   like consecutive process calls do. *)
let burst_equals_map =
  QCheck.Test.make ~name:"process_burst = Array.map process" ~count:20
    QCheck.(
      pair (oneofl replay_nfs) (list_of_size (Gen.int_range 1 80) small_nat))
    (fun (name, picks) ->
      let nf = Nf.Registry.find name in
      let w = workload_for name in
      let pkts =
        Array.of_list
          (List.map
             (fun k -> Testbed.Workload.nth_looped w k)
             picks)
      in
      let a = Testbed.Dut.create nf in
      let b = Testbed.Dut.create nf in
      Testbed.Dut.process_burst a pkts = Array.map (Testbed.Dut.process b) pkts)

(* ---------------- Compile against the reference interpreter ---------------- *)

(* The two engines as packet runners, each over its own fresh NF memory:
   the reference interpreter and the compiled executor the DUT runs. *)
let interp (nf : Nf.Nf_def.t) ~hooks ~budget =
  let mem = ref (Nf.Nf_def.fresh_memory nf) in
  fun args -> Ir.Interp.call nf.program ~mem ~hooks ~budget "process" args

let compiled (nf : Nf.Nf_def.t) ~hooks ~budget =
  let process = Ir.Compile.lookup (Ir.Compile.program nf.program) "process" in
  let mem = Ir.Memory.flat_of_memory (Nf.Nf_def.fresh_memory nf) in
  fun args -> Ir.Compile.call process ~mem ~hooks ~budget (Array.of_list args)

(* The superblock fast path prefunds a whole run's weight; it must still
   give out at exactly the same instruction as the interpreter (the fused
   closure falls back when the budget cannot cover the run), which shows in
   the number of memory accesses made before the budget ran out. *)
let budget_exhaustion_agrees () =
  let nf = Nf.Registry.find "lpm-btrie" in
  let entry = Ir.Cfg.entry_func nf.Nf.Nf_def.program in
  let rng = Util.Rng.create 99 in
  let p = nf.Nf.Nf_def.shape (Testbed.Traffic.random_packet rng) in
  let args = Nf.Packet.args_for entry p in
  let outcome engine budget =
    let accesses = ref 0 in
    let on_access ~addr:_ ~width:_ ~write:_ = incr accesses in
    match engine nf ~hooks:{ Ir.Interp.on_access } ~budget args with
    | o -> (Some o, !accesses)
    | exception Ir.Interp.Budget_exhausted -> (None, !accesses)
  in
  let show (o, accesses) =
    Printf.sprintf "%s after %d accesses"
      (match o with Some _ -> "completes" | None -> "exhausts")
      accesses
  in
  (* Sweep budgets through the exhaustion boundary: both engines must agree
     on exactly which budgets complete, on the outcome when they do and on
     how far they got when they do not. *)
  for budget = 1 to 400 do
    let a = outcome interp budget and b = outcome compiled budget in
    if a <> b then
      Alcotest.failf "budget %d: interp %s, compiled %s" budget (show a)
        (show b)
  done;
  Alcotest.(check bool) "the sweep crosses the boundary" true
    (fst (outcome interp 1) = None && fst (outcome interp 400) <> None)

(* The compiled program keeps frames, argument buffers and resolved hashes
   between calls, and a budget that runs out mid-packet abandons some of
   them.  On one compiled program and one context, each packet is first cut
   short at 20-80% of its instructions and then run to completion; the
   interpreter does the same over its own memory, and the two must agree on
   every outcome and on the whole access log. *)
let reuse_after_exhaustion () =
  let nf = Nf.Registry.find "nat-hash-ring" in
  let w = workload_for "nat-hash-ring" in
  let entry = Ir.Cfg.entry_func nf.Nf.Nf_def.program in
  let logging log =
    let on_access ~addr ~width ~write = log := (addr, width, write) :: !log in
    { Ir.Interp.on_access }
  in
  let log_i = ref [] and log_c = ref [] in
  let hooks_i = logging log_i in
  let mem_i = ref (Nf.Nf_def.fresh_memory nf) in
  let process = Ir.Compile.lookup (Ir.Compile.program nf.program) "process" in
  let ctx =
    Ir.Compile.context
      ~mem:(Ir.Memory.flat_of_memory (Nf.Nf_def.fresh_memory nf))
      ~hooks:(logging log_c)
  in
  let exhausts f =
    match f () with
    | _ -> false
    | exception Ir.Interp.Budget_exhausted -> true
  in
  for k = 0 to 39 do
    let args = Nf.Packet.args_for entry (Testbed.Workload.nth_looped w k) in
    let full =
      (Ir.Interp.call nf.program ~mem:(ref !mem_i) ~hooks:Ir.Interp.no_hooks
         "process" args)
        .instrs
    in
    let budget = full * (1 + (k mod 4)) / 5 in
    let cut_i =
      exhausts (fun () ->
          Ir.Interp.call nf.program ~mem:mem_i ~hooks:hooks_i ~budget "process"
            args)
    in
    let cut_c =
      exhausts (fun () ->
          Ir.Compile.run ctx ~budget process (Array.of_list args))
    in
    if not (cut_i && cut_c) then
      Alcotest.failf "packet %d: budget %d not cut short" k budget;
    let a =
      Ir.Interp.call nf.program ~mem:mem_i ~hooks:hooks_i "process" args
    in
    ignore (Ir.Compile.run ctx process (Array.of_list args) : int);
    if a <> Ir.Compile.outcome ctx then
      Alcotest.failf "packet %d: outcomes differ" k
  done;
  Alcotest.(check bool) "access logs identical" true (!log_i = !log_c);
  Alcotest.(check bool) "accesses logged" true (!log_i <> [])

(* Per-(func, pc) attribution of 300 packets through one engine.  Each
   access is charged at a level and cost derived from its address and
   width, so a missing or misattributed access changes the sites. *)
let sites_with engine =
  let nf = Nf.Registry.find "nat-hash-ring" in
  let w = workload_for "nat-hash-ring" in
  let entry = Ir.Cfg.entry_func nf.Nf.Nf_def.program in
  let on_access ~addr ~width ~write =
    Obs.Profile.add_access ~write
      (if addr land 64 = 0 then Obs.Profile.L1 else Obs.Profile.Dram)
      ~cycles:width
  in
  let step = engine nf ~hooks:{ Ir.Interp.on_access } ~budget:10_000_000 in
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Profile.set_enabled false) (fun () ->
      for k = 0 to 299 do
        let p = Testbed.Workload.nth_looped w k in
        ignore (step (Nf.Packet.args_for entry p) : Ir.Interp.outcome)
      done);
  let sites = Obs.Profile.sites () in
  Obs.Profile.reset ();
  sites

(* Flamegraphs must not care which engine ran: the fused closure falls back
   to per-instruction execution whenever the profiler is live, so the
   compiled executor attributes exactly like the interpreter. *)
let profile_attribution_identical () =
  let a = sites_with interp in
  let b = sites_with compiled in
  Alcotest.(check bool) "site attribution identical" true (a = b);
  Alcotest.(check bool) "profile non-empty" true (a <> [])

(* ---------------- pinned replay output ---------------- *)

(* Samples and latencies of one measurement, as bytes: what every testbed
   figure is computed from. *)
let digest_measurement (m : Testbed.Tg.measurement) =
  let b = Buffer.create (Array.length m.samples * 40) in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  Array.iter
    (fun (s : Testbed.Dut.sample) ->
      int s.cycles;
      int s.instrs;
      int s.l3_misses;
      int s.ret)
    m.samples;
  Array.iter
    (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f))
    m.latencies_ns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let shaped name traffic =
  let nf = Nf.Registry.find name in
  (nf, Testbed.Workload.shape nf.shape traffic)

let manual name =
  let nf = Nf.Registry.find name in
  match nf.manual with
  | Some gen ->
      ( nf,
        Testbed.Workload.make ~name:"Manual"
          (gen (Util.Rng.create 0x3a41) nf.castan_packets) )
  | None -> invalid_arg ("no manual workload for " ^ name)

(* Digests recorded from the replay path as it stood before it was made
   allocation-free, so any change to the DUT cycle model, the cache levels,
   the compiled executor or the TG noise shows here, not only in the
   benchmark's full-scale golden digests. *)
let pinned =
  [
    ( "nop, 1 packet",
      (fun () -> shaped "nop" (Testbed.Traffic.one_packet ())),
      false,
      "411a33761b033af7e3db7ab180b6d896" );
    ( "lb-hash-ring, Zipfian",
      (fun () ->
        shaped "lb-hash-ring"
          (Testbed.Traffic.zipfian ~scale:`Quick ~seed:42 ())),
      false,
      "980e4e2b7040e5fefd9e7cd1f24ca405" );
    ( "lpm-1stage-dl, Zipfian",
      (fun () ->
        shaped "lpm-1stage-dl"
          (Testbed.Traffic.zipfian ~scale:`Quick ~seed:42 ())),
      false,
      "db879f73df9a54693e92d1150a9ca6e8" );
    ( "nat-hash-ring, UniRand",
      (fun () ->
        shaped "nat-hash-ring"
          (Testbed.Traffic.unirand ~scale:`Quick ~seed:42 ())),
      false,
      "97d3b77c967a1ad966bdd50d6555a492" );
    ( "lpm-btrie, Manual",
      (fun () -> manual "lpm-btrie"),
      false,
      "561b58673838aacb01d2a9e1aac9407e" );
    ( "nat-hash-ring, UniRand, prefetch + DDIO",
      (fun () ->
        shaped "nat-hash-ring"
          (Testbed.Traffic.unirand ~scale:`Quick ~seed:42 ())),
      true,
      "c36885d4449dc0c4c708bf03c7b257c7" );
  ]

let replay_output_pinned () =
  List.iter
    (fun (label, traffic, extras, expected) ->
      let nf, w = traffic () in
      let m =
        Testbed.Tg.measure ~seed:42 ~samples:3000 ~prefetch:extras ~ddio:extras
          nf w
      in
      Alcotest.(check int) (label ^ ": samples") 3000 (Array.length m.samples);
      Alcotest.(check string) label expected (digest_measurement m))
    pinned

(* ---------------- allocation guard ---------------- *)

(* Minor words [Dut.process] allocates per packet once the DUT is warm:
   one pass over the traffic first, so flow state, cache sets and the
   executor's frames already exist, then 2,000 packets counted.  The
   count is deterministic, so a bound on it cannot flake. *)
let words_per_packet (nf, w) =
  Obs.Profile.set_enabled false;
  Obs.Metrics.set_active false;
  let dut = Testbed.Dut.create nf in
  for k = 0 to Testbed.Workload.length w - 1 do
    ignore (Testbed.Dut.process dut (Testbed.Workload.nth_looped w k))
  done;
  let n = 2000 in
  let before = Gc.minor_words () in
  for k = 0 to n - 1 do
    ignore (Testbed.Dut.process dut (Testbed.Workload.nth_looped w k))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The per-packet path allocates only the 5-word sample record.  The one
   exception is a sparse region's chained hash table: each hit on
   nat-hash-ring's 2^24-entry ring returns an option. *)
let replay_allocation_bounded () =
  let cases =
    [
      ("nop", shaped "nop" (Testbed.Traffic.one_packet ()), 5.0);
      ("lpm-btrie", manual "lpm-btrie", 5.0);
      ( "nat-hash-ring",
        shaped "nat-hash-ring"
          (Testbed.Traffic.zipfian ~scale:`Quick ~seed:42 ()),
        10.0 );
    ]
  in
  List.iter
    (fun (label, traffic, bound) ->
      let words = words_per_packet traffic in
      if words > bound then
        Alcotest.failf "%s: %.1f words per packet, bound %.0f" label words
          bound)
    cases

(* ---------------- replay telemetry ---------------- *)

let replay_counters () =
  Obs.Metrics.set_active true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_active false;
      Obs.Metrics.reset ())
  @@ fun () ->
  let nf = Nf.Registry.find "lb-hash-ring" in
  let dut = Testbed.Dut.create nf in
  let w = workload_for "lb-hash-ring" in
  ignore (Testbed.Dut.replay dut w ~samples:100 : Testbed.Dut.sample array);
  let counters =
    match Obs.Json.member "counters" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Json.Obj kv) -> kv
    | _ -> []
  in
  let value name =
    match List.assoc_opt name counters with
    | Some (Obs.Json.Int n) -> n
    | _ -> 0
  in
  Alcotest.(check bool) "replay.packets counts samples" true
    (value "replay.packets" >= 100);
  Alcotest.(check bool) "replay.bursts counts ceil(samples/32)" true
    (value "replay.bursts" >= 4)

let tests =
  [
    qtest burst_equals_map;
    Alcotest.test_case "budget exhaustion agrees across engines" `Quick
      budget_exhaustion_agrees;
    Alcotest.test_case "profile attribution engine-independent" `Quick
      profile_attribution_identical;
    Alcotest.test_case "one context survives budget exhaustion" `Quick
      reuse_after_exhaustion;
    Alcotest.test_case "replay.* counters" `Quick replay_counters;
    Alcotest.test_case "replay output pinned" `Quick replay_output_pinned;
    Alcotest.test_case "replay allocation bounded" `Quick
      replay_allocation_bounded;
  ]
