(* Hash havocing and rainbow reconciliation (§3.5, §5.4): the LB hash ring
   is indexed by a 24-bit hash that symbolic execution cannot invert, so
   CASTAN havocs it, finds the slow path, and then reverses the required
   hash values through a rainbow table to emit concrete packets.

     dune exec examples/hashring_attack.exe *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let () =
  let nf = Nf.Registry.find "lb-hash-ring" in
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
    {
      (Castan.Analyze.default_config
         ~cache:(Castan.Analyze.Contention_sets sets) ())
      with
      n_packets = Some (if smoke then 8 else 30);
    }
  in
  let o = Castan.Analyze.run ~config nf in
  Printf.printf
    "%d packets; %d hash havocs, %d reconciled through the rainbow table, \
     %d left partially symbolic\n"
    (Testbed.Workload.length o.workload)
    o.n_havocs o.reconciled (o.n_havocs - o.reconciled);

  (* Verify reconciliation for real: re-hash the emitted packets and check
     they land in the ring slots the analysis targeted. *)
  let hash = Ir.Hashes.ring24 in
  Printf.printf "ring slots hit by the emitted packets:\n";
  Array.iteri
    (fun k (p : Nf.Packet.t) ->
      if k < 8 then
        let key = (p.src_ip lsl 16) lor p.src_port in
        Printf.printf "  %-28s -> slot 0x%06x\n" (Nf.Packet.to_string p)
          (hash.apply key))
    o.workload.Testbed.Workload.packets;

  let samples = if smoke then 500 else 8_000 in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let z = Testbed.Tg.measure ~samples nf
      (Testbed.Workload.shape nf.Nf.Nf_def.shape (Testbed.Traffic.zipfian ~seed:7 ())) in
  let c = Testbed.Tg.measure ~samples nf o.workload in
  Printf.printf "Zipfian dev %+.0f ns | CASTAN dev %+.0f ns (L3 %d vs %d /pkt)\n"
    (Testbed.Tg.deviation_from_nop_ns z ~nop)
    (Testbed.Tg.deviation_from_nop_ns c ~nop)
    (Testbed.Tg.median_l3_misses z) (Testbed.Tg.median_l3_misses c)
