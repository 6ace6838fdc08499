type row = { label : string; measurement : Testbed.Tg.measurement }

type nf_run = {
  nf : Nf.Nf_def.t;
  nop : Testbed.Tg.measurement;
  rows : row list;
  castan : Analyze.outcome;
}

type config = {
  scale : Testbed.Traffic.scale;
  samples : int;
  analysis_instrs : int;
  use_contention_model : bool;
  seed : int;
}

let default_config =
  {
    scale = `Default;
    samples = 20_000;
    analysis_instrs = (Analyze.default_config ()).instr_budget;
    use_contention_model = true;
    seed = 42;
  }

let quick_config =
  {
    scale = `Quick;
    samples = 4_000;
    analysis_instrs = 9_000;
    use_contention_model = true;
    seed = 42;
  }

(* One NF campaign, split into guarded stages so a failure names where the
   pipeline died.  The [checkpoint] calls are the fault-injection points:
   no-ops unless a test installed an injector. *)
let run config name =
  let ( let* ) = Result.bind in
  let nf_arg = [ ("nf", Obs.Json.Str name) ] in
  let* nf, castan =
    Util.Resilience.guard ~nf:name ~stage:"symbex" (fun () ->
        Obs.Trace.with_span "stage.symbex" ~args:nf_arg @@ fun () ->
        Obs.Log.info "campaign %s: symbex (budget %d instrs)" name
          config.analysis_instrs;
        Util.Resilience.checkpoint ~nf:name ~stage:"symbex" ();
        let nf = Nf.Registry.find name in
        let analysis_cfg =
          {
            (Analyze.default_config
               ~cache:
                 (if config.use_contention_model then
                    Analyze.Contention_sets
                      (Analyze.discover_contention_sets ())
                  else Analyze.Baseline)
               ())
            with
            instr_budget = config.analysis_instrs;
            seed = config.seed;
          }
        in
        (nf, Analyze.run ~config:analysis_cfg nf))
  in
  Util.Resilience.guard ~nf:name ~stage:"testbed" (fun () ->
      Obs.Trace.with_span "stage.testbed" ~args:nf_arg @@ fun () ->
      Obs.Log.info "campaign %s: testbed (%d samples)" name config.samples;
      Util.Resilience.checkpoint ~nf:name ~stage:"testbed" ();
      let shape = Testbed.Workload.shape nf.Nf.Nf_def.shape in
      let seed = config.seed in
      let samples = config.samples in
      let castan_flows = Testbed.Workload.flows castan.Analyze.workload in
      let generic =
        [
          ("1 Packet", shape (Testbed.Traffic.one_packet ()));
          ("Zipfian", shape (Testbed.Traffic.zipfian ~scale:config.scale ~seed ()));
          ("UniRand", shape (Testbed.Traffic.unirand ~scale:config.scale ~seed ()));
          ( "UniRand CASTAN",
            shape (Testbed.Traffic.unirand_castan ~seed ~flows:(max castan_flows 1)) );
          ("CASTAN", castan.Analyze.workload);
        ]
      in
      let manual =
        match nf.Nf.Nf_def.manual with
        | Some gen ->
            let rng = Util.Rng.create (0x3a41 + seed) in
            [
              ( "Manual",
                Testbed.Workload.make ~name:"Manual"
                  (gen rng nf.Nf.Nf_def.castan_packets) );
            ]
        | None -> []
      in
      let rows =
        (* One pool task per workload; results come back in input order and
           each measurement is a pure function of (nf, workload, seed). *)
        List.map
          (fun (label, m) -> { label; measurement = m })
          (Testbed.Tg.measure_all ~seed ~samples nf (generic @ manual))
      in
      { nf; nop = Testbed.Tg.nop_baseline ~seed ~samples (); rows; castan })

type campaigns = (string * (nf_run, Util.Resilience.failure) result) list

(* Contention sets are discovered once, on the calling domain, before the
   fan-out: discovery is memoized in [Analyze], and workers racing into it
   would each run it. *)
let run_all config names =
  if config.use_contention_model then
    ignore (Analyze.discover_contention_sets () : Cache.Contention.t);
  List.combine names (Util.Pool.map (run config) names)

let find_row r label =
  match List.find_opt (fun row -> row.label = label) r.rows with
  | Some row -> row.measurement
  | None -> raise Not_found

let workload_labels r = List.map (fun row -> row.label) r.rows
