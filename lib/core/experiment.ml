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

(* The memo table is shared across pool workers (Harness prewarms campaigns
   in parallel), so access is Mutex-guarded with double-checked insertion:
   two workers racing on the same key both run the (deterministic) campaign
   but agree on one canonical cached value.  The key is the NF name and the
   whole config: every field is a plain value, and every field can change
   the campaign. *)
let cache_mu = Mutex.create ()

let cache :
    (string * config, (nf_run, Util.Resilience.failure) result) Hashtbl.t =
  Hashtbl.create 16

let clear_cache () = Mutex.protect cache_mu (fun () -> Hashtbl.reset cache)

(* One NF campaign, split into guarded stages so a failure names where the
   pipeline died.  The [checkpoint] calls are the fault-injection points:
   no-ops unless `--inject-faults` installed an injector. *)
let campaign name config =
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

let try_run ?(config = default_config) name =
  let key = (name, config) in
  match Mutex.protect cache_mu (fun () -> Hashtbl.find_opt cache key) with
  | Some r -> r
  | None ->
      let r = campaign name config in
      Mutex.protect cache_mu (fun () ->
          match Hashtbl.find_opt cache key with
          | Some canonical -> canonical
          | None ->
              Hashtbl.replace cache key r;
              r)

let run ?(config = default_config) name =
  match try_run ~config name with
  | Ok r -> r
  | Error f -> failwith (Util.Resilience.to_string f)

let find_row r label =
  match List.find_opt (fun row -> row.label = label) r.rows with
  | Some row -> row.measurement
  | None -> raise Not_found

let workload_labels r = List.map (fun row -> row.label) r.rows
