(* The replay pipeline's determinism contract (DESIGN.md §12): burst
   processing, superblock compilation and sharded replay are pure wall-time
   optimizations — samples, metrics and profile attribution are bit-identical
   to the per-packet, per-instruction baseline for every batch size, compile
   mode, shard count and job count. *)

let qtest = QCheck_alcotest.to_alcotest

(* Compile mode and batch size are process-wide defaults; every test that
   moves them must put them back or it would perturb its neighbours. *)
let with_mode mode f =
  let saved = Ir.Compile.default_mode () in
  Ir.Compile.set_default_mode mode;
  Fun.protect ~finally:(fun () -> Ir.Compile.set_default_mode saved) f

let with_jobs n f =
  let saved = Util.Pool.default_jobs () in
  Util.Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) f

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

(* ---------------- batch size and compile mode ---------------- *)

let replay_with ~mode ~batch name ~samples =
  with_mode mode (fun () ->
      let nf = Nf.Registry.find name in
      let dut = Testbed.Dut.create nf in
      Testbed.Dut.replay ~batch dut (workload_for name) ~samples)

(* The per-instruction engine at batch 1 is the reference; the superblock
   engine must reproduce its samples byte for byte at every burst size. *)
let modes_and_batches_agree () =
  List.iter
    (fun name ->
      let reference =
        replay_with ~mode:Ir.Compile.Instr ~batch:1 name ~samples:700
      in
      List.iter
        (fun batch ->
          List.iter
            (fun mode ->
              let got = replay_with ~mode ~batch name ~samples:700 in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s batch=%d" name
                   (Ir.Compile.mode_to_string mode)
                   batch)
                true
                (got = reference))
            [ Ir.Compile.Instr; Ir.Compile.Superblock ])
        [ 1; 7; 32; 257 ])
    replay_nfs

(* ---------------- sharding and job count ---------------- *)

let sharded ~shards ~batch name ~samples =
  let nf = Nf.Registry.find name in
  let make ~shard =
    if shard = 0 then Testbed.Dut.create nf
    else Testbed.Dut.create ~vmem_seed:(0x1000 + (shard * 7919)) nf
  in
  Testbed.Dut.replay_sharded ~batch ~shards ~make (workload_for name) ~samples

(* shards = 1 is the classic serial replay; more shards redistribute the
   index space deterministically — and neither the job count nor the batch
   size may change a single sample. *)
let sharded_deterministic () =
  let name = "lb-hash-ring" in
  let one = sharded ~shards:1 ~batch:32 name ~samples:500 in
  let legacy =
    let dut = Testbed.Dut.create (Nf.Registry.find name) in
    Testbed.Dut.replay ~batch:32 dut (workload_for name) ~samples:500
  in
  Alcotest.(check bool) "shards=1 = replay" true (one = legacy);
  let j1 = with_jobs 1 (fun () -> sharded ~shards:3 ~batch:32 name ~samples:500) in
  let j4 = with_jobs 4 (fun () -> sharded ~shards:3 ~batch:32 name ~samples:500) in
  Alcotest.(check bool) "-j1 = -j4" true (j1 = j4);
  let b7 = with_jobs 4 (fun () -> sharded ~shards:3 ~batch:7 name ~samples:500) in
  Alcotest.(check bool) "batch 32 = batch 7" true (j4 = b7);
  Alcotest.(check int) "sample count" 500 (Array.length j4)

let shard_ranges_partition =
  QCheck.Test.make ~name:"shard ranges partition the index space" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 1 32))
    (fun (samples, shards) ->
      let ranges =
        List.init shards (fun i -> Testbed.Dut.shard_range ~samples ~shards i)
      in
      let covers =
        List.for_all2
          (fun i (lo, hi) ->
            lo <= hi
            && (i = 0 || snd (Testbed.Dut.shard_range ~samples ~shards (i - 1)) = lo))
          (List.init shards Fun.id) ranges
      in
      covers
      && fst (List.hd ranges) = 0
      && snd (List.nth ranges (shards - 1)) = samples)

(* ---------------- budget exhaustion ---------------- *)

(* The superblock fast path prefunds a whole run's weight; it must still
   give out at exactly the same instruction as the per-instruction engine
   (the fused closure falls back when the budget cannot cover the run). *)
let budget_exhaustion_agrees () =
  let nf = Nf.Registry.find "lpm-btrie" in
  let hooks =
    {
      Ir.Interp.no_hooks with
      hash_apply = (fun n k -> (Hashrev.Hashes.lookup n).apply k);
      hash_weight = (fun n -> (Hashrev.Hashes.lookup n).weight);
    }
  in
  let entry = Ir.Cfg.entry_func nf.Nf.Nf_def.program in
  let rng = Util.Rng.create 99 in
  let p = nf.Nf.Nf_def.shape (Testbed.Traffic.random_packet rng) in
  let args = Nf.Packet.args_for entry p in
  let outcome_at mode budget =
    with_mode mode (fun () ->
        let compiled = Ir.Compile.program nf.Nf.Nf_def.program in
        let mem = ref (Nf.Nf_def.fresh_memory nf) in
        match Ir.Compile.call compiled ~mem ~hooks ~budget "process" args with
        | o -> Some o
        | exception Ir.Interp.Budget_exhausted -> None)
  in
  (* Sweep budgets through the exhaustion boundary: both engines must agree
     on exactly which budgets complete and on the outcome when they do. *)
  for budget = 1 to 400 do
    let a = outcome_at Ir.Compile.Instr budget in
    let b = outcome_at Ir.Compile.Superblock budget in
    if a <> b then
      Alcotest.failf "budget %d: instr %s, superblock %s" budget
        (match a with Some _ -> "completes" | None -> "exhausts")
        (match b with Some _ -> "completes" | None -> "exhausts")
  done

(* ---------------- profile attribution ---------------- *)

(* Flamegraphs must not care which engine ran: per-(func, pc) attribution is
   identical because the fused closure falls back to per-instruction
   execution whenever the profiler is live. *)
let profile_attribution_identical () =
  let sites_with mode =
    with_mode mode (fun () ->
        let nf = Nf.Registry.find "nat-hash-ring" in
        let dut = Testbed.Dut.create nf in
        Obs.Profile.reset ();
        Obs.Profile.set_enabled true;
        ignore
          (Testbed.Dut.replay dut (workload_for "nat-hash-ring") ~samples:300
            : Testbed.Dut.sample array);
        Obs.Profile.set_enabled false;
        let sites = Obs.Profile.sites () in
        Obs.Profile.reset ();
        List.map
          (fun (site, (s : Obs.Profile.stats)) ->
            (site, (s.cycles, s.instrs, s.loads, s.stores, s.l1, s.l2, s.l3, s.dram)))
          sites)
  in
  let a = sites_with Ir.Compile.Instr in
  let b = sites_with Ir.Compile.Superblock in
  Alcotest.(check bool) "site attribution identical" true (a = b);
  Alcotest.(check bool) "profile non-empty" true (a <> [])

(* ---------------- replay telemetry ---------------- *)

let replay_counters () =
  Obs.Metrics.set_active true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_active false;
      Obs.Metrics.reset ())
  @@ fun () ->
  let before name =
    match Obs.Json.member name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Json.Obj counters) -> (
        match List.assoc_opt "replay.packets" counters with
        | Some (Obs.Json.Int n) -> n
        | _ -> 0)
    | _ -> 0
  in
  ignore (before "counters" : int);
  let nf = Nf.Registry.find "lb-hash-ring" in
  let dut = Testbed.Dut.create nf in
  let w = workload_for "lb-hash-ring" in
  ignore (Testbed.Dut.replay ~batch:32 dut w ~samples:100 : Testbed.Dut.sample array);
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
  Alcotest.(check bool) "replay.bursts counts ceil(samples/batch)" true
    (value "replay.bursts" >= 4)

let tests =
  [
    qtest burst_equals_map;
    Alcotest.test_case "modes x batches bit-identical" `Quick
      modes_and_batches_agree;
    Alcotest.test_case "sharded replay deterministic" `Quick
      sharded_deterministic;
    qtest shard_ranges_partition;
    Alcotest.test_case "budget exhaustion agrees across engines" `Quick
      budget_exhaustion_agrees;
    Alcotest.test_case "profile attribution engine-independent" `Quick
      profile_attribution_identical;
    Alcotest.test_case "replay.* counters" `Quick replay_counters;
  ]
