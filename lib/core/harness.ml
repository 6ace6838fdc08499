type entry = {
  id : string;
  descr : string;
  run :
    Experiment.config -> Cache.Contention.t Lazy.t -> Experiment.campaigns ->
    unit;
}

(* Figures and tables read their NFs' campaigns from the list `castan
   experiment` ran up front ([campaign_nfs] names them); an NF missing from
   it is a caller's bug, not a campaign to run here. *)
let campaign (campaigns : Experiment.campaigns) name =
  match List.assoc_opt name campaigns with
  | Some r -> r
  | None -> invalid_arg ("Harness: no campaign for " ^ name)

(* ------------------------------------------------------------------ *)
(* Figures (§5.2-§5.4)                                                 *)
(* ------------------------------------------------------------------ *)

type figure = {
  fid : string;
  nf_name : string;
  kind : [ `Latency | `Cycles ];
  caption : string;
}

let figures =
  [
    { fid = "fig4"; nf_name = "lpm-1stage-dl"; kind = `Latency;
      caption = "End-to-end latency CDF for LPM with 1-stage Direct Lookup" };
    { fid = "fig5"; nf_name = "lpm-1stage-dl"; kind = `Cycles;
      caption = "CPU reference cycles CDF for LPM with 1-stage Direct Lookup" };
    { fid = "fig6"; nf_name = "lpm-2stage-dl"; kind = `Latency;
      caption = "End-to-end latency CDF for LPM with 2-stage Direct Lookup" };
    { fid = "fig7"; nf_name = "lpm-btrie"; kind = `Latency;
      caption = "End-to-end latency CDF for LPM with a Patricia trie" };
    { fid = "fig8"; nf_name = "lpm-btrie"; kind = `Cycles;
      caption = "CPU reference cycles CDF for LPM with a Patricia trie" };
    { fid = "fig9"; nf_name = "nat-unbalanced-tree"; kind = `Latency;
      caption = "End-to-end latency CDF for NAT with an unbalanced tree" };
    { fid = "fig10"; nf_name = "nat-unbalanced-tree"; kind = `Cycles;
      caption = "CPU reference cycles CDF for NAT with an unbalanced tree" };
    { fid = "fig11"; nf_name = "nat-red-black-tree"; kind = `Latency;
      caption = "End-to-end latency CDF for NAT with a red-black tree" };
    { fid = "fig12"; nf_name = "lb-hash-table"; kind = `Latency;
      caption = "End-to-end latency CDF for LB with a hash table" };
    { fid = "fig13"; nf_name = "lb-hash-ring"; kind = `Latency;
      caption = "End-to-end latency CDF for LB with a hash ring" };
    { fid = "fig14"; nf_name = "nat-hash-table"; kind = `Latency;
      caption = "End-to-end latency CDF for NAT with a hash table" };
    { fid = "fig15"; nf_name = "nat-hash-ring"; kind = `Latency;
      caption = "End-to-end latency CDF for NAT with a hash ring" };
  ]

let figure_nfs = List.map (fun f -> (f.fid, f.nf_name)) figures

let run_figure f _config _sets campaigns =
  match campaign campaigns f.nf_name with
  | Error fl ->
      (* The figure degrades to a stub; the campaign's failure reaches the
         end-of-run summary from the campaign list. *)
      Printf.printf "\n== %s: %s ==\nfailed:%s (%s)\n" f.fid f.caption
        fl.Util.Resilience.stage fl.Util.Resilience.reason
  | Ok r -> (
      match f.kind with
      | `Latency ->
          Report.print_cdf_figure ~id:f.fid ~title:f.caption
            ~unit_label:"latency ns" (Report.latency_series r)
      | `Cycles ->
          Report.print_cdf_figure ~id:f.fid ~title:f.caption ~unit_label:"cycles"
            (Report.cycles_series r))

(* ------------------------------------------------------------------ *)
(* Tables 1-5                                                          *)
(* ------------------------------------------------------------------ *)

let table_nfs = List.filter (fun n -> n <> "nop") Nf.Registry.names

(* Per-NF isolation: each campaign is guarded, so the tables split into
   completed runs plus [failed:<stage>] columns — a table always renders. *)
let table (print : ?failed:_ -> _ -> unit) _config _sets campaigns =
  let ok, failed =
    List.partition_map
      (fun n ->
        match campaign campaigns n with
        | Ok r -> Either.Left r
        | Error f -> Either.Right (n, f))
      table_nfs
  in
  print ~failed ok

let tables =
  [
    ("table1", "maximum throughput (Mpps) per NF and workload",
     table Report.print_throughput_table);
    ("table2", "median instructions retired per packet",
     table Report.print_instrs_table);
    ("table3", "median L3 misses per packet",
     table Report.print_misses_table);
    ("table4", "CASTAN analysis: packets generated, instructions executed",
     table Report.print_analysis_table);
    ("table5", "median latency deviation from NOP (ns)",
     table Report.print_deviation_table);
  ]

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices                                     *)
(* ------------------------------------------------------------------ *)

(* The ablations' exploration budget: a fraction of the campaign's. *)
let analysis_budget (c : Experiment.config) frac =
  int_of_float (float_of_int c.analysis_instrs *. frac)

(* Directed search: compare the best predicted cost each strategy reaches
   under the same budget. *)
let ablation_searcher (config : Experiment.config) _sets =
  Printf.printf "\n== ablation-searcher: best predicted cost by strategy ==\n";
  let instr_budget = analysis_budget config 0.3 in
  let nfs = [ "lpm-btrie"; "nat-unbalanced-tree"; "lb-hash-table" ] in
  let strategies = Symbex.Searcher.[ Castan; Dfs; Bfs; Random 11 ] in
  let header = "NF" :: List.map Symbex.Searcher.strategy_name strategies in
  let rows =
    List.map
      (fun name ->
        let nf = Nf.Registry.find name in
        name
        :: List.map
             (fun strategy ->
               let cfg =
                 { (Analyze.default_config ()) with
                   strategy; n_packets = Some 10; instr_budget }
               in
               match Analyze.run ~config:cfg nf with
               | o -> string_of_int o.Analyze.predicted_cost
               | exception Failure _ -> "fail")
             strategies)
      nfs
  in
  Util.Table.print ~header ~rows

(* Cache-model quality: empirical contention sets vs the ground-truth oracle
   vs no model, measured end to end on the cache-sensitive NF. *)
let ablation_cache_model (config : Experiment.config) sets =
  Printf.printf
    "\n== ablation-cache-model: LPM 1-stage DL, measured CASTAN workload ==\n";
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let samples = max 4000 (config.samples / 2) in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let kinds =
    [
      ("baseline", Analyze.Baseline);
      ("contention-sets", Analyze.Contention_sets (Lazy.force sets));
      ("oracle", Analyze.Oracle);
    ]
  in
  let header =
    [ "cache model"; "dev vs NOP (ns)"; "L3 miss/pkt"; "tput (Mpps)" ]
  in
  let rows =
    List.map
      (fun (label, kind) ->
        let cfg =
          { (Analyze.default_config ~cache:kind ()) with
            instr_budget = analysis_budget config 1.0 }
        in
        let o = Analyze.run ~config:cfg nf in
        let m = Testbed.Tg.measure ~samples nf o.Analyze.workload in
        [
          label;
          Printf.sprintf "%.0f" (Testbed.Tg.deviation_from_nop_ns m ~nop);
          string_of_int (Testbed.Tg.median_l3_misses m);
          Printf.sprintf "%.2f" (Testbed.Tg.max_throughput_mpps m);
        ])
      kinds
  in
  Util.Table.print ~header ~rows

(* The loop bound M of the potential-cost annotation. *)
let ablation_loop_bound (config : Experiment.config) _sets =
  Printf.printf "\n== ablation-loop-bound: best cost found vs M ==\n";
  let instr_budget = analysis_budget config 0.3 in
  let nfs = [ "lpm-btrie"; "nat-unbalanced-tree" ] in
  let header = [ "NF"; "M=1"; "M=2"; "M=3" ] in
  let rows =
    List.map
      (fun name ->
        let nf = Nf.Registry.find name in
        name
        :: List.map
             (fun m ->
               let cfg =
                 { (Analyze.default_config ()) with
                   m; n_packets = Some 10; instr_budget }
               in
               match Analyze.run ~config:cfg nf with
               | o -> string_of_int o.Analyze.predicted_cost
               | exception Failure _ -> "fail")
             [ 1; 2; 3 ])
      nfs
  in
  Util.Table.print ~header ~rows

(* Tailored rainbow tables vs none (§3.5). *)
let ablation_rainbow (config : Experiment.config) sets =
  Printf.printf "\n== ablation-rainbow: havoc reconciliation success ==\n";
  let instr_budget = analysis_budget config 0.5 in
  let header =
    [ "NF"; "havocs"; "reconciled (tailored)"; "reconciled (none)" ]
  in
  let rows =
    List.map
      (fun name ->
        let nf = Nf.Registry.find name in
        let cfg =
          { (Analyze.default_config
               ~cache:(Analyze.Contention_sets (Lazy.force sets)) ())
            with instr_budget; n_packets = Some 12 }
        in
        let o = Analyze.run ~config:cfg nf in
        let no_tables = { nf with Nf.Nf_def.keyspaces = [] } in
        let o2 = Analyze.run ~config:cfg no_tables in
        [
          name;
          string_of_int o.Analyze.n_havocs;
          string_of_int o.Analyze.reconciled;
          string_of_int o2.Analyze.reconciled;
        ])
      [ "lb-hash-table"; "lb-hash-ring"; "nat-hash-table"; "nat-hash-ring" ]
  in
  Util.Table.print ~header ~rows

(* Contention sets are processor-specific: a workload synthesized against
   one hidden slice hash loses its teeth on a different CPU model. *)
let ablation_cpu_transfer (config : Experiment.config) sets =
  Printf.printf
    "\n== ablation-cpu-transfer: CASTAN workload measured on other CPUs ==\n";
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let samples = max 4000 (config.samples / 2) in
  let cfg =
    { (Analyze.default_config
         ~cache:(Analyze.Contention_sets (Lazy.force sets)) ())
      with instr_budget = analysis_budget config 1.0 }
  in
  let o = Analyze.run ~config:cfg nf in
  let header = [ "DUT CPU (slice hash)"; "dev vs NOP (ns)"; "L3 miss/pkt" ] in
  let rows =
    List.map
      (fun slice_seed ->
        let nop = Testbed.Tg.nop_baseline ~samples () in
        let m = Testbed.Tg.measure ~samples ~slice_seed nf o.Analyze.workload in
        [
          (if slice_seed = 0 then "analyzed CPU (seed 0)"
           else Printf.sprintf "different CPU (seed %d)" slice_seed);
          Printf.sprintf "%.0f" (Testbed.Tg.deviation_from_nop_ns m ~nop);
          string_of_int (Testbed.Tg.median_l3_misses m);
        ])
      [ 0; 1; 2 ]
  in
  Util.Table.print ~header ~rows

(* Workloads for the machine-feature ablations. *)
let ablation_cases scale =
  [
    ("nop / 1 Packet", Nf.Registry.nop (), Testbed.Traffic.one_packet ());
    ( "lpm-1stage-dl / Zipfian",
      Nf.Registry.find "lpm-1stage-dl",
      Testbed.Traffic.zipfian ~scale ~seed:3 () );
    ( "lpm-btrie / UniRand",
      Nf.Registry.find "lpm-btrie",
      Testbed.Traffic.unirand ~scale ~seed:3 () );
  ]

(* The paper's §3.3 claims: prefetching barely matters for NF traffic, and
   DDIO improves all workloads the same. *)
let ablation_prefetch (config : Experiment.config) _sets =
  Printf.printf "\n== ablation-prefetch: next-line prefetcher on/off ==\n";
  let samples = max 4000 (config.samples / 2) in
  let header = [ "NF x workload"; "median cycles (off)"; "median cycles (on)" ] in
  let rows =
    List.map
      (fun (label, nf, w) ->
        let med prefetch =
          Testbed.Tg.median_cycles (Testbed.Tg.measure ~samples ~prefetch nf w)
        in
        [ label; Printf.sprintf "%.0f" (med false); Printf.sprintf "%.0f" (med true) ])
      (ablation_cases config.scale)
  in
  Util.Table.print ~header ~rows

let ablation_ddio (config : Experiment.config) _sets =
  Printf.printf "\n== ablation-ddio: DMA writes allocate into the cache ==\n";
  let samples = max 4000 (config.samples / 2) in
  let header =
    [ "NF x workload"; "cycles (no ddio)"; "cycles (ddio)"; "delta" ]
  in
  let rows =
    List.map
      (fun (label, nf, w) ->
        let med ddio =
          Testbed.Tg.median_cycles (Testbed.Tg.measure ~samples ~ddio nf w)
        in
        let off = med false and on = med true in
        [
          label;
          Printf.sprintf "%.0f" off;
          Printf.sprintf "%.0f" on;
          Printf.sprintf "%+.0f" (on -. off);
        ])
      (ablation_cases config.scale)
  in
  Util.Table.print ~header ~rows

(* ------------------------------------------------------------------ *)
(* §5.5 discussion experiments                                         *)
(* ------------------------------------------------------------------ *)

(* A partially adversarial stream: even a small CASTAN fraction hurts every
   packet behind it in the queue (head-of-line blocking). *)
let discussion_mixed_traffic (config : Experiment.config) sets =
  Printf.printf
    "\n== discussion-mixed-traffic: CASTAN fraction vs latency under load ==\n";
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let cfg =
    { (Analyze.default_config
         ~cache:(Analyze.Contention_sets (Lazy.force sets)) ())
      with instr_budget = analysis_budget config 1.0 }
  in
  let o = Analyze.run ~config:cfg nf in
  let zipf = Testbed.Traffic.zipfian ~scale:config.scale ~seed:config.seed () in
  let samples = max 8000 config.samples in
  let rate = 2.6 in
  Printf.printf "offered load %.1f Mpps, 512-descriptor queue\n" rate;
  let header =
    [ "CASTAN fraction"; "median sojourn (ns)"; "p99 sojourn (ns)"; "loss" ]
  in
  let rows =
    List.map
      (fun fraction ->
        let w =
          if fraction = 0.0 then zipf
          else if fraction = 1.0 then o.Analyze.workload
          else
            Testbed.Traffic.mix ~seed:config.seed ~fraction o.Analyze.workload
              zipf
        in
        let m = Testbed.Tg.measure ~samples nf w in
        let cdf, loss = Testbed.Tg.latency_under_load ~rate_mpps:rate m in
        [
          Printf.sprintf "%.0f%%" (fraction *. 100.0);
          Printf.sprintf "%.0f" (Util.Stats.median cdf);
          Printf.sprintf "%.0f" (Util.Stats.quantile cdf 0.99);
          Printf.sprintf "%.3f" loss;
        ])
      [ 0.0; 0.05; 0.1; 0.25; 0.5; 1.0 ]
  in
  Util.Table.print ~header ~rows

(* CASTAN under-approximates the worst case; the annotated ICFG (with every
   memory access charged a DRAM trip) over-approximates it — the WCET-style
   contrast of §6. *)
let discussion_wcet (config : Experiment.config) _sets =
  Printf.printf
    "\n== discussion-wcet: ICFG upper bound vs CASTAN lower bound (cycles/packet) ==\n";
  let geom = Cache.Geometry.xeon_e5_2667v2 in
  let pessimistic = { geom with lat_l1 = geom.lat_dram } in
  let header =
    [ "NF"; "ICFG bound (M=34)"; "CASTAN worst packet"; "measured median" ]
  in
  let instr_budget = analysis_budget config 0.5 in
  let rows =
    List.map
      (fun name ->
        let nf = Nf.Registry.find name in
        (* M = 34 lets the bound unroll a 32-bit trie/tree descent fully;
           for data-dependent loops it stays a structural assumption. *)
        let upper =
          Symbex.Cost.full_cost
            (Symbex.Cost.annotate ~m:34 pessimistic nf.Nf.Nf_def.program)
            nf.Nf.Nf_def.program.Ir.Cfg.entry
        in
        let cfg =
          { (Analyze.default_config ()) with n_packets = Some 10; instr_budget }
        in
        let o = Analyze.run ~config:cfg nf in
        (* the most expensive single packet on the chosen path: the state the
           cyclically replayed workload keeps the NF in *)
        let lower =
          List.fold_left
            (fun acc (m : Symbex.State.metrics) -> max acc m.cycles)
            0 o.Analyze.predicted
        in
        let measured =
          Testbed.Tg.median_cycles
            (Testbed.Tg.measure ~samples:4000 nf o.Analyze.workload)
          -. float_of_int (Testbed.Dut.overhead_cycles + geom.lat_dram)
        in
        [
          name;
          string_of_int upper;
          string_of_int lower;
          Printf.sprintf "%.0f" measured;
        ])
      [ "lpm-btrie"; "lpm-1stage-dl"; "lb-hash-table"; "nat-unbalanced-tree" ]
  in
  Util.Table.print ~header ~rows;
  print_endline
    "(the ICFG bound assumes every access is a DRAM miss and each loop runs\n\
    \ M-1 = 33 times: safe for loop-free NFs, structural otherwise — unlike\n\
    \ CASTAN's lower bound it comes with no witness workload)"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  List.map
    (fun f -> { id = f.fid; descr = f.caption; run = run_figure f })
    figures
  @ List.map (fun (id, descr, run) -> { id; descr; run }) tables
  @ List.map
      (fun (id, descr, run) -> { id; descr; run = (fun c sets _ -> run c sets) })
      [
        ("ablation-searcher", "directed search vs DFS/BFS/random",
         ablation_searcher);
        ("ablation-cache-model", "contention sets vs oracle vs none",
         ablation_cache_model);
        ("ablation-loop-bound", "potential-cost loop bound M",
         ablation_loop_bound);
        ("ablation-rainbow", "tailored rainbow tables vs none",
         ablation_rainbow);
        ("ablation-cpu-transfer", "contention workload on a different CPU model",
         ablation_cpu_transfer);
        ("ablation-prefetch", "next-line prefetcher on/off (§3.3 claim)",
         ablation_prefetch);
        ("ablation-ddio", "DDIO on/off (§3.3 claim)", ablation_ddio);
        ("discussion-mixed-traffic",
         "partially adversarial traffic under load (§5.5)",
         discussion_mixed_traffic);
        ("discussion-wcet", "ICFG upper bound vs CASTAN lower bound (§6)",
         discussion_wcet);
      ]

let ids = List.map (fun e -> e.id) all

let find id = List.find_opt (fun e -> e.id = id) all

(* Meta-ids expand to groups so `castan experiment tables` regenerates the
   whole evaluation in one command. *)
let expand_id = function
  | "tables" -> List.map (fun (id, _, _) -> id) tables
  | "figures" -> List.map (fun f -> f.fid) figures
  | "all" -> ids
  | id -> [ id ]

(* Campaign NFs behind a list of experiment ids, in first-use order.
   Ablations and discussion entries drive [Analyze.run] directly, so they
   contribute nothing here. *)
let campaign_nfs ids =
  let nf_of_id id =
    match List.assoc_opt id figure_nfs with
    | Some nf -> [ nf ]
    | None ->
        if List.exists (fun (tid, _, _) -> tid = id) tables then table_nfs
        else []
  in
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    [] (List.concat_map nf_of_id ids)

let run_id config sets campaigns id =
  match find id with
  | None ->
      invalid_arg
        (Printf.sprintf "Harness.run_id: unknown experiment %s (known: %s)" id
           (String.concat ", " (ids @ [ "tables"; "figures"; "all" ])))
  | Some e ->
      (* The whole entry is guarded too: an ablation dying (beyond the
         per-NF isolation of the tables) degrades to a one-line failure
         instead of aborting the run.  With fail-fast on, the exception
         propagates.  The trailer's wall time comes from the same span the
         trace file records, so human and machine output cannot disagree;
         it goes to stderr, keeping stdout a function of the config. *)
      let result, elapsed =
        Obs.Trace.timed ("experiment:" ^ id)
          ~args:[ ("descr", Obs.Json.Str e.descr) ]
          (fun () ->
            Util.Resilience.guard ~stage:("experiment:" ^ id) (fun () ->
                e.run config sets campaigns))
      in
      (match result with
      | Ok () -> Printf.eprintf "[%s done in %.1fs]\n%!" id elapsed
      | Error f ->
          Printf.printf "[%s failed: %s]\n%!" id (Util.Resilience.to_string f));
      (result, elapsed)
