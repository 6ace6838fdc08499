(* Adversarial memory access (§5.2): a 40-packet workload against the
   1GB direct-lookup LPM that thrashes one L3 contention set — latency
   comparable to a million-flow UniRand DoS, from 4 orders of magnitude
   fewer packets.

     dune exec examples/lpm_cache_attack.exe *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let () =
  let nf = Nf.Registry.find "lpm-1stage-dl" in

  (* The attack needs the empirical cache model: reverse-engineer the
     machine's contention sets first (§3.2). *)
  Printf.printf "discovering L3 contention sets...\n%!";
  let sets =
    if smoke then
      Castan.Analyze.discover_contention_sets ~pool:192 ~pages:1 ~reboots:1 ()
    else Castan.Analyze.discover_contention_sets ()
  in
  if sets.Cache.Contention.n_classes = 0 then begin
    prerr_endline "contention discovery found no class";
    exit 1
  end;
  Printf.printf "  %d consistent sets\n%!" sets.Cache.Contention.n_classes;

  let config =
    Castan.Analyze.default_config
      ~cache:(Castan.Analyze.Contention_sets sets) ()
  in
  let o = Castan.Analyze.run ~config nf in
  Printf.printf "workload: %d packets, predicted %d L3 misses total\n%!"
    (Testbed.Workload.length o.workload)
    (List.fold_left
       (fun acc (m : Symbex.State.metrics) -> acc + m.l3_misses)
       0 o.predicted);

  let samples = if smoke then 500 else 10_000 in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let rows =
    [
      ("Zipfian", Testbed.Traffic.zipfian ~seed:3 ());
      ("UniRand", Testbed.Traffic.unirand ~seed:3 ());
      ( "UniRand CASTAN",
        Testbed.Traffic.unirand_castan ~seed:3
          ~flows:(Testbed.Workload.length o.workload) );
      ("CASTAN", o.workload);
    ]
  in
  Printf.printf "%-16s %9s %8s %7s %7s\n" "workload" "packets" "dev(ns)"
    "L3/pkt" "Mpps";
  List.iter
    (fun (label, w) ->
      let m = Testbed.Tg.measure ~samples nf w in
      Printf.printf "%-16s %9d %8.0f %7d %7.2f\n" label
        (Testbed.Workload.length w)
        (Testbed.Tg.deviation_from_nop_ns m ~nop)
        (Testbed.Tg.median_l3_misses m)
        (Testbed.Tg.max_throughput_mpps m))
    rows
