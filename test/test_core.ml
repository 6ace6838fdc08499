(* End-to-end tests for the CASTAN core: the four §5 attack classes, the
   ablations' expectations, and the experiment/report plumbing. *)

(* Every analysis here finishes exploring well inside the default
   instruction budget. *)
let quick_analysis ?(n = 10) ?cache name =
  let nf = Nf.Registry.find name in
  let base =
    match cache with
    | Some kind -> Castan.Analyze.default_config ~cache:kind ()
    | None -> Castan.Analyze.default_config ()
  in
  let config = { base with n_packets = Some n } in
  (nf, Castan.Analyze.run ~config nf)

let workload_has_n_distinct_flows () =
  let _, o = quick_analysis "lpm-btrie" in
  Alcotest.(check int) "packets" 10 (Testbed.Workload.length o.workload);
  Alcotest.(check int) "distinct flows" 10 (Testbed.Workload.flows o.workload)

let algorithmic_attack_trie () =
  (* §5.3: the synthesized workload walks the longest trie paths *)
  let nf, o = quick_analysis "lpm-btrie" in
  let samples = 3000 in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let zipf = Testbed.Tg.measure ~samples nf (Testbed.Traffic.zipfian ~scale:`Quick ~seed:1 ()) in
  Alcotest.(check bool) "more instructions than Zipfian" true
    (Testbed.Tg.median_instrs castan > Testbed.Tg.median_instrs zipf)

let castan_close_to_manual_trie () =
  (* §5.2: "CASTAN experiences similar latency to Manual without the benefit
     of human insight" *)
  let nf, o = quick_analysis ~n:16 "lpm-btrie" in
  let samples = 3000 in
  let manual_pkts = (Option.get nf.manual) (Util.Rng.create 1) 16 in
  let manual = Testbed.Tg.measure ~samples nf (Testbed.Workload.make ~name:"Manual" manual_pkts) in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let mi = Testbed.Tg.median_instrs manual and ci = Testbed.Tg.median_instrs castan in
  Alcotest.(check bool)
    (Printf.sprintf "within 20%% of Manual (castan %d vs manual %d)" ci mi)
    true
    (float_of_int ci >= 0.8 *. float_of_int mi)

let collision_attack_hash_table () =
  (* §5.4: reconciled workload causes persistent collisions *)
  let nf, o = quick_analysis ~n:10 "lb-hash-table" in
  Alcotest.(check bool) "havocs present" true (o.n_havocs >= 10);
  Alcotest.(check bool) "mostly reconciled" true (o.reconciled * 3 >= o.n_havocs * 2);
  let samples = 3000 in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let fair =
    Testbed.Tg.measure ~samples nf
      (Testbed.Workload.shape nf.shape
         (Testbed.Traffic.unirand_castan ~seed:2 ~flows:(Testbed.Workload.length o.workload)))
  in
  Alcotest.(check bool) "beats volume-fair random" true
    (Testbed.Tg.median_instrs castan > Testbed.Tg.median_instrs fair)

let cache_attack_direct_lookup () =
  (* §5.2: with the contention model, the 1GB table thrashs one L3 set *)
  let sets = Castan.Analyze.discover_contention_sets () in
  let nf, o =
    quick_analysis ~n:40 ~cache:(Castan.Analyze.Contention_sets sets)
      "lpm-1stage-dl"
  in
  let samples = 4000 in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let fair =
    Testbed.Tg.measure ~samples nf (Testbed.Traffic.unirand_castan ~seed:3 ~flows:40)
  in
  Alcotest.(check bool) "more L3 misses than volume-fair random" true
    (Testbed.Tg.median_l3_misses castan > Testbed.Tg.median_l3_misses fair);
  Alcotest.(check bool) "latency deviation at least 3x" true
    (Testbed.Tg.deviation_from_nop_ns castan ~nop
     > 3.0 *. Testbed.Tg.deviation_from_nop_ns fair ~nop)

let rb_tree_resists () =
  (* §5.3: CASTAN fails to beat volume on the re-balancing tree *)
  let nf, o = quick_analysis ~n:12 "nat-red-black-tree" in
  let samples = 3000 in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let uni = Testbed.Tg.measure ~samples nf (Testbed.Traffic.unirand ~scale:`Quick ~seed:4 ()) in
  Alcotest.(check bool) "UniRand volume wins against RB" true
    (Testbed.Tg.median_instrs uni >= Testbed.Tg.median_instrs castan)

let skew_attack_bst () =
  (* §5.3: the unbalanced tree degenerates; CASTAN must beat the volume-fair
     uniform workload of the same size *)
  let nf, o = quick_analysis ~n:16 "nat-unbalanced-tree" in
  let samples = 3000 in
  let castan = Testbed.Tg.measure ~samples nf o.workload in
  let fair = Testbed.Tg.measure ~samples nf (Testbed.Traffic.unirand_castan ~seed:5 ~flows:16) in
  Alcotest.(check bool) "skew beats volume-fair random" true
    (Testbed.Tg.median_instrs castan > Testbed.Tg.median_instrs fair)

let predicted_metrics_nonempty () =
  let _, o = quick_analysis "lpm-btrie" in
  Alcotest.(check int) "one metric per packet" 10 (List.length o.predicted);
  List.iter
    (fun (m : Symbex.State.metrics) ->
      Alcotest.(check bool) "positive cycles" true (m.cycles > 0))
    o.predicted

let searcher_ablation_directed_wins () =
  (* the castan searcher must find at least as expensive a state as BFS
     under the same small budget *)
  let nf = Nf.Registry.find "nat-unbalanced-tree" in
  let run strategy =
    let config =
      { (Castan.Analyze.default_config ()) with
        strategy; n_packets = Some 8; instr_budget = 300_000 }
    in
    (Castan.Analyze.run ~config nf).predicted_cost
  in
  Alcotest.(check bool) "directed >= bfs" true
    (run Symbex.Searcher.Castan >= run Symbex.Searcher.Bfs)

let experiment_and_report_plumbing () =
  let config = { Castan.Experiment.quick_config with samples = 1500;
                 analysis_instrs = 300_000; use_contention_model = false } in
  let r =
    match Castan.Experiment.run config "lpm-btrie" with
    | Ok r -> r
    | Error f -> Alcotest.fail (Util.Resilience.to_string f)
  in
  Alcotest.(check bool) "has manual row" true
    (List.mem "Manual" (Castan.Experiment.workload_labels r));
  ignore (Castan.Experiment.find_row r "CASTAN");
  (* rendering doesn't raise *)
  Castan.Report.print_cdf_figure ~id:"test" ~title:"t" ~unit_label:"ns"
    (Castan.Report.latency_series r);
  Castan.Report.print_throughput_table [ r ];
  Castan.Report.print_instrs_table [ r ];
  Castan.Report.print_misses_table [ r ];
  Castan.Report.print_deviation_table [ r ];
  Castan.Report.print_analysis_table [ r ]

let pcap_export_import_workload () =
  let _, o = quick_analysis "lpm-btrie" in
  let path = Filename.temp_file "castan" ".pcap" in
  Testbed.Workload.save_pcap o.workload path;
  let back = Testbed.Workload.load_pcap ~name:"CASTAN" path in
  Sys.remove path;
  Alcotest.(check bool) "identical packets" true
    (back.Testbed.Workload.packets = o.workload.Testbed.Workload.packets)

let analysis_deterministic () =
  let _, o1 = quick_analysis "lpm-btrie" in
  let _, o2 = quick_analysis "lpm-btrie" in
  Alcotest.(check bool) "same workload" true
    (o1.workload.Testbed.Workload.packets = o2.workload.Testbed.Workload.packets)

(* nat-unbalanced-tree never runs out of states to explore, so at the
   quick-scale campaign config the instruction budget is what stops it.
   The cut run must reproduce byte for byte, also on another domain. *)
let quick_budget_binds () =
  let budget = Castan.Experiment.quick_config.analysis_instrs in
  let config =
    { (Castan.Analyze.default_config
         ~cache:
           (Castan.Analyze.Contention_sets
              (Castan.Analyze.discover_contention_sets ()))
         ())
      with
      instr_budget = budget;
      seed = Castan.Experiment.quick_config.seed }
  in
  let nf = Nf.Registry.find "nat-unbalanced-tree" in
  match
    Util.Pool.map ~jobs:2 (fun () -> Castan.Analyze.run ~config nf) [ (); () ]
  with
  | [ a; b ] ->
      let executed = a.stats.Symbex.Driver.executed_instrs in
      Alcotest.(check bool)
        (Printf.sprintf "budget binds (%d >= %d)" executed budget)
        true (executed >= budget);
      Alcotest.(check bool) "cut with states pending" true
        a.stats.Symbex.Driver.degraded;
      Alcotest.(check string) "identical ktest"
        (Castan.Ktest.ktest_string a) (Castan.Ktest.ktest_string b)
  | _ -> assert false

let harness_registry () =
  let ids = Castan.Harness.ids in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "has figures and tables" true
    (List.mem "fig4" ids && List.mem "table5" ids
     && List.mem "discussion-wcet" ids);
  (match Castan.Harness.find "fig4" with
  | Some e -> Alcotest.(check string) "id" "fig4" e.Castan.Harness.id
  | None -> Alcotest.fail "fig4 missing");
  (* figure -> NF map covers the paper's 9 distinct NFs over 12 figures *)
  Alcotest.(check int) "12 figures" 12 (List.length Castan.Harness.figure_nfs);
  match Castan.Harness.run_id Castan.Experiment.quick_config [] "no-such-id" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* `castan experiment` runs the campaigns of [campaign_nfs ids] once and
   hands them to every entry; an entry whose NF is missing from that list
   fails, contained, naming the NF. *)
let harness_campaign_nfs () =
  let table_nfs = List.filter (fun n -> n <> "nop") Nf.Registry.names in
  Alcotest.(check (list string)) "first-use order, no duplicates"
    ("lpm-1stage-dl" :: List.filter (fun n -> n <> "lpm-1stage-dl") table_nfs)
    (Castan.Harness.campaign_nfs [ "fig4"; "fig5"; "table1" ]);
  Alcotest.(check (list string)) "ablations need no campaign" []
    (Castan.Harness.campaign_nfs
       [ "ablation-prefetch"; "ablation-rainbow"; "discussion-wcet" ]);
  Util.Resilience.reset ();
  Fun.protect ~finally:Util.Resilience.reset (fun () ->
      ignore
        (Castan.Harness.run_id Castan.Experiment.quick_config [] "fig4"
          : float);
      match Util.Resilience.recorded () with
      | [ f ] ->
          Alcotest.(check string) "the failure names the NF"
            (Printexc.to_string
               (Invalid_argument "Harness: no campaign for lpm-1stage-dl"))
            f.Util.Resilience.reason
      | l -> Alcotest.failf "expected one failure, got %d" (List.length l))

let ktest_output_well_formed () =
  let _, o = quick_analysis ~n:4 "lpm-btrie" in
  let k = Castan.Ktest.ktest_string o in
  Alcotest.(check bool) "header" true (String.length k > 10 && String.sub k 0 5 = "ktest");
  Alcotest.(check bool) "20 objects" true
    (List.length (String.split_on_char '\n' k
                  |> List.filter (fun l ->
                         String.length l > 6 && String.sub l 0 6 = "object"))
     = 60);
  let m = Castan.Ktest.metrics_string o in
  let rows =
    String.split_on_char '\n' m
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
  in
  (* header + 4 packets *)
  Alcotest.(check int) "metric rows" 5 (List.length rows);
  let paths = Castan.Ktest.write ~prefix:(Filename.temp_file "castan" "") o in
  List.iter (fun p -> Alcotest.(check bool) "file exists" true (Sys.file_exists p); Sys.remove p) paths

let harness_fast_experiments_run () =
  (* the machine-feature ablations are cheap end to end; smoke them *)
  let config = { Castan.Experiment.quick_config with samples = 1000 } in
  ignore (Castan.Harness.run_id config [] "ablation-prefetch" : float);
  ignore (Castan.Harness.run_id config [] "ablation-ddio" : float)

let tests =
  [
    Alcotest.test_case "workload flows distinct" `Quick workload_has_n_distinct_flows;
    Alcotest.test_case "trie: algorithmic attack" `Slow algorithmic_attack_trie;
    Alcotest.test_case "trie: close to Manual" `Slow castan_close_to_manual_trie;
    Alcotest.test_case "hash table: collisions" `Slow collision_attack_hash_table;
    Alcotest.test_case "direct lookup: contention" `Slow cache_attack_direct_lookup;
    Alcotest.test_case "red-black tree resists" `Slow rb_tree_resists;
    Alcotest.test_case "bst: skew attack" `Slow skew_attack_bst;
    Alcotest.test_case "predicted metrics" `Quick predicted_metrics_nonempty;
    Alcotest.test_case "searcher ablation" `Slow searcher_ablation_directed_wins;
    Alcotest.test_case "experiment plumbing" `Slow experiment_and_report_plumbing;
    Alcotest.test_case "pcap export/import" `Quick pcap_export_import_workload;
    Alcotest.test_case "analysis deterministic" `Quick analysis_deterministic;
    Alcotest.test_case "quick budget binds on the unbalanced tree" `Slow
      quick_budget_binds;
    Alcotest.test_case "harness registry" `Quick harness_registry;
    Alcotest.test_case "harness campaign NFs" `Quick harness_campaign_nfs;
    Alcotest.test_case "ktest output" `Quick ktest_output_well_formed;
    Alcotest.test_case "harness fast experiments" `Slow harness_fast_experiments_run;
  ]
