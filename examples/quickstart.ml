(* Quickstart: synthesize an adversarial workload for one NF and compare it
   against typical traffic on the simulated testbed.

     dune exec examples/quickstart.exe

   CASTAN_SMOKE=1 shrinks every budget so `dune build @smoke` finishes in
   seconds. *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let () =
  (* 1. Pick a network function from the evaluation library. *)
  let nf = Nf.Registry.find "lpm-btrie" in
  Printf.printf "analyzing %s (%s)\n%!" nf.Nf.Nf_def.name nf.Nf.Nf_def.descr;

  (* 2. Run CASTAN: directed symbolic execution + cache model. *)
  let config =
    { (Castan.Analyze.default_config ()) with
      n_packets = Some (if smoke then 3 else 10) }
  in
  let outcome = Castan.Analyze.run ~config nf in
  Printf.printf
    "synthesized %d packets (%d states explored, %d instructions):\n"
    (Testbed.Workload.length outcome.workload)
    outcome.stats.Symbex.Driver.explored
    outcome.stats.Symbex.Driver.executed_instrs;
  Array.iter
    (fun p -> Printf.printf "  %s\n" (Nf.Packet.to_string p))
    outcome.workload.Testbed.Workload.packets;

  (* 3. Export it as a real PCAP (what the paper feeds to MoonGen). *)
  Testbed.Workload.save_pcap outcome.workload "castan-quickstart.pcap";
  Printf.printf "wrote castan-quickstart.pcap\n";

  (* 4. Measure against the typical Zipfian workload. *)
  let samples = if smoke then 500 else 8_000 in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let castan = Testbed.Tg.measure ~samples nf outcome.workload in
  let zipf =
    Testbed.Tg.measure ~samples nf
      (Testbed.Workload.shape nf.Nf.Nf_def.shape
         (Testbed.Traffic.zipfian ~seed:1 ()))
  in
  let report label m =
    Printf.printf
      "  %-8s median latency %+5.0f ns vs NOP | %4d instrs/pkt | %.2f Mpps\n"
      label
      (Testbed.Tg.deviation_from_nop_ns m ~nop)
      (Testbed.Tg.median_instrs m)
      (Testbed.Tg.max_throughput_mpps m)
  in
  print_endline "measured on the simulated testbed:";
  report "Zipfian" zipf;
  report "CASTAN" castan
