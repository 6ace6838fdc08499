(* The cost-attribution profiler: deterministic block JSON that accounts for
   every cycle, attribution of the concrete replay only (symbolic
   exploration leaves timers, never sites), and — like the rest of lib/obs —
   zero perturbation of analysis results when enabled. *)

let with_profile f =
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.set_enabled false;
      Obs.Profile.reset ())
    f

let replay nf w ~samples =
  ignore
    (Testbed.Dut.replay (Testbed.Dut.create nf) w ~samples
      : Testbed.Dut.sample array)

(* One profiled DUT replay; returns the NF so reports can derive blocks. *)
let replay_profiled ~name ~seed ~samples =
  let nf = Nf.Registry.find name in
  replay nf ~samples
    (Testbed.Workload.shape nf.Nf.Nf_def.shape
       (Testbed.Traffic.unirand ~scale:`Quick ~seed ()));
  nf

(* ---------------- disabled path ---------------- *)

let disabled_records_nothing () =
  Obs.Profile.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.Profile.enabled ());
  Obs.Profile.enter ~func:"f" ~pc:0;
  Obs.Profile.add_retire ~weight:10;
  Obs.Profile.add_exec ~instrs:5 ~cycles:50;
  Obs.Profile.add_access ~write:false Obs.Profile.Dram ~cycles:300;
  Obs.Profile.add_timer "solver" 1.0;
  Alcotest.(check int) "no sites" 0 (List.length (Obs.Profile.sites ()));
  Alcotest.(check int) "no cycles" 0 (Obs.Profile.total_cycles ());
  Alcotest.(check int) "no timers" 0 (List.length (Obs.Profile.timers ()))

(* pre-[enter] attributions drop into a detached record, never the snapshot *)
let pre_enter_attributions_dropped () =
  with_profile (fun () ->
      Obs.Profile.add_retire ~weight:100;
      Alcotest.(check int) "nothing attributed" 0 (Obs.Profile.total_cycles ());
      Obs.Profile.enter ~func:"f" ~pc:0;
      Obs.Profile.add_exec ~instrs:1 ~cycles:7;
      Alcotest.(check int) "post-enter attributed" 7
        (Obs.Profile.total_cycles ()))

(* ---------------- determinism ---------------- *)

let blocks_of json =
  match Obs.Json.member "blocks" json with
  | Some (Obs.Json.List blocks) -> blocks
  | _ -> Alcotest.fail "profile json lacks a blocks list"

(* [timers_s] is wall time, so only the blocks are compared. *)
let replay_blocks_deterministic () =
  let blocks () =
    with_profile (fun () ->
        let nf = replay_profiled ~name:"nat-hash-ring" ~seed:11 ~samples:400 in
        let json =
          Castan.Profile_report.to_json ~nf:"nat-hash-ring" nf.Nf.Nf_def.program
        in
        Obs.Json.to_string (Obs.Json.List (blocks_of json)))
  in
  let a = blocks () and b = blocks () in
  Alcotest.(check bool) "non-empty" true (a <> "[]");
  Alcotest.(check string) "byte-identical blocks" a b

(* ---------------- JSON accounting ---------------- *)

let json_blocks_sum_to_total () =
  with_profile (fun () ->
      let nf = replay_profiled ~name:"lb-hash-table" ~seed:3 ~samples:300 in
      let json =
        Castan.Profile_report.to_json ~nf:"lb-hash-table" nf.Nf.Nf_def.program
      in
      let blocks = blocks_of json in
      Alcotest.(check bool) "has blocks" true (blocks <> []);
      let sum =
        List.fold_left
          (fun acc b ->
            match Obs.Json.member "cycles" b with
            | Some (Obs.Json.Int n) -> acc + n
            | _ ->
                Alcotest.failf "block without cycles: %s"
                  (Obs.Json.to_string b))
          0 blocks
      in
      (match Obs.Json.member "total_cycles" json with
      | Some (Obs.Json.Int n) ->
          Alcotest.(check int) "blocks sum to total" n sum
      | _ -> Alcotest.fail "profile json lacks total_cycles");
      Alcotest.(check int) "total is every attributed cycle"
        (Obs.Profile.total_cycles ()) sum)

(* ---------------- replay-only attribution ---------------- *)

let analysis_config () =
  { (Castan.Analyze.default_config ()) with
    n_packets = Some 4;
    instr_budget = 150_000 }

let analyze nf = Castan.Analyze.run ~config:(analysis_config ()) nf

let symbex_timers_only () =
  with_profile (fun () ->
      ignore (analyze (Nf.Registry.find "lpm-btrie") : Castan.Analyze.outcome);
      Alcotest.(check int) "symbolic execution attributes no sites" 0
        (List.length (Obs.Profile.sites ()));
      let timers = Obs.Profile.timers () in
      Alcotest.(check bool) "symbex timer" true (List.mem_assoc "symbex" timers);
      Alcotest.(check bool) "solver timer" true
        (List.mem_assoc "solver" timers))

let site_lines () =
  List.map
    (fun ((func, pc), (s : Obs.Profile.stats)) ->
      Printf.sprintf "%s:%d cycles=%d instrs=%d ld=%d st=%d l1=%d l2=%d l3=%d \
                      dram=%d"
        func pc s.cycles s.instrs s.loads s.stores s.l1 s.l2 s.l3 s.dram)
    (Obs.Profile.sites ())

(* What [castan profile --analyze] records: the profiler stays on across the
   analysis that synthesizes the workload, and the sites must be exactly
   those of the workload's replay profiled on its own. *)
let analyze_then_replay_sites () =
  let nf = Nf.Registry.find "lpm-btrie" in
  let both, w =
    with_profile (fun () ->
        let w = (analyze nf).Castan.Analyze.workload in
        replay nf w ~samples:300;
        (site_lines (), w))
  in
  let alone =
    with_profile (fun () ->
        replay nf w ~samples:300;
        site_lines ())
  in
  Alcotest.(check bool) "replay attributed sites" true (alone <> []);
  Alcotest.(check (list string)) "the replay's sites only" alone both

(* ---------------- no perturbation ---------------- *)

let fingerprint () =
  let o = analyze (Nf.Registry.find "lpm-btrie") in
  ( o.Castan.Analyze.predicted_cost,
    Array.to_list o.Castan.Analyze.workload.Testbed.Workload.packets
    |> List.map Nf.Packet.to_string )

let profiler_off_vs_on_identical () =
  let off = fingerprint () in
  let on = with_profile fingerprint in
  Alcotest.(check int) "same predicted cost" (fst off) (fst on);
  Alcotest.(check (list string)) "same workload" (snd off) (snd on)

let tests =
  [
    Alcotest.test_case "disabled: records nothing" `Quick
      disabled_records_nothing;
    Alcotest.test_case "pre-enter attributions dropped" `Quick
      pre_enter_attributions_dropped;
    Alcotest.test_case "replay: blocks byte-identical" `Quick
      replay_blocks_deterministic;
    Alcotest.test_case "json: blocks sum to total" `Quick
      json_blocks_sum_to_total;
    Alcotest.test_case "symbex: timers only, no sites" `Quick
      symbex_timers_only;
    Alcotest.test_case "analyze + replay: the replay's sites" `Quick
      analyze_then_replay_sites;
    Alcotest.test_case "no perturbation: analysis identical" `Slow
      profiler_off_vs_on_identical;
  ]
