(* Partially adversarial traffic (§5.5): a small CASTAN fraction mixed into
   an otherwise benign Zipfian stream inflates everyone's tail latency
   through head-of-line blocking in the descriptor queue.

     dune exec examples/mixed_traffic.exe *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let () =
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let sets =
    if smoke then
      Castan.Analyze.discover_contention_sets ~pool:192 ~pages:1 ~reboots:1 ()
    else Castan.Analyze.discover_contention_sets ()
  in
  if sets.Cache.Contention.n_classes = 0 then begin
    prerr_endline "contention discovery found no class";
    exit 1
  end;
  let config =
    Castan.Analyze.default_config
      ~cache:(Castan.Analyze.Contention_sets sets) ()
  in
  let o = Castan.Analyze.run ~config nf in
  let zipf = Testbed.Traffic.zipfian ~seed:11 () in
  let rate = 2.6 in
  Printf.printf
    "offered load %.1f Mpps against %s; CASTAN fraction vs sojourn time:\n"
    rate nf.Nf.Nf_def.name;
  Printf.printf "%10s %14s %14s %8s\n" "fraction" "median (ns)" "p99 (ns)" "loss";
  List.iter
    (fun fraction ->
      let w =
        if fraction = 0.0 then zipf
        else if fraction = 1.0 then o.Castan.Analyze.workload
        else Testbed.Traffic.mix ~seed:11 ~fraction o.Castan.Analyze.workload zipf
      in
      let m = Testbed.Tg.measure ~samples:(if smoke then 500 else 10_000) nf w in
      let cdf, loss = Testbed.Tg.latency_under_load ~rate_mpps:rate m in
      Printf.printf "%9.0f%% %14.0f %14.0f %8.3f\n" (fraction *. 100.0)
        (Util.Stats.median cdf)
        (Util.Stats.quantile cdf 0.99)
        loss)
    [ 0.0; 0.05; 0.1; 0.25; 0.5; 1.0 ]
