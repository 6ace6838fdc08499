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

let hash_hooks =
  {
    Ir.Interp.no_hooks with
    hash_apply = (fun n k -> (Hashrev.Hashes.lookup n).apply k);
    hash_weight = (fun n -> (Hashrev.Hashes.lookup n).weight);
  }

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
    match engine nf ~hooks:{ hash_hooks with on_access } ~budget args with
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
  let step = engine nf ~hooks:{ hash_hooks with on_access } ~budget:10_000_000 in
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
    Alcotest.test_case "replay.* counters" `Quick replay_counters;
  ]
