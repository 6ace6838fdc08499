(* Tests for castan.testbed: PCAP I/O, traffic generators, the DUT, and the
   traffic generator/sink measurements. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- pcap ---------------- *)

let arb_packet =
  QCheck.make
    ~print:(fun p -> Nf.Packet.to_string p)
    QCheck.Gen.(
      map
        (fun ((src_ip, dst_ip), (tcp, (sp, dp))) ->
          Nf.Packet.make ~src_ip ~dst_ip
            ~proto:(if tcp then Nf.Packet.tcp else Nf.Packet.udp)
            ~src_port:sp ~dst_port:dp ())
        (pair
           (pair (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF))
           (pair bool (pair (int_range 0 65535) (int_range 0 65535)))))

let pcap_roundtrip =
  QCheck.Test.make ~name:"pcap write/read roundtrip" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 20) arb_packet)
    (fun packets ->
      Testbed.Pcap.of_bytes (Testbed.Pcap.to_bytes packets) = packets)

let pcap_file_roundtrip () =
  let packets = [ Nf.Packet.make (); Nf.Packet.make ~proto:Nf.Packet.tcp () ] in
  let path = Filename.temp_file "castan" ".pcap" in
  Testbed.Pcap.write path packets;
  let back = Testbed.Pcap.read path in
  Sys.remove path;
  Alcotest.(check int) "count" 2 (List.length back);
  Alcotest.(check bool) "equal" true (back = packets)

let pcap_header_magic () =
  let b = Testbed.Pcap.to_bytes [ Nf.Packet.make () ] in
  Alcotest.(check int) "little-endian magic" 0xD4 (Bytes.get_uint8 b 0);
  Alcotest.(check int) "magic 2" 0xC3 (Bytes.get_uint8 b 1)

let pcap_checksum_valid =
  QCheck.Test.make ~name:"IPv4 checksums validate" ~count:100 arb_packet
    (fun p ->
      let b = Testbed.Pcap.to_bytes [ p ] in
      (* frame starts at 24 + 16; IP header at +14 *)
      Testbed.Pcap.ipv4_checksum b ~off:(24 + 16 + 14) = 0)

(* ---------------- workloads & traffic ---------------- *)

let workload_flow_count () =
  let p1 = Nf.Packet.make ~src_port:1 () in
  let p2 = Nf.Packet.make ~src_port:2 () in
  let w = Testbed.Workload.make ~name:"t" [ p1; p2; p1; p1 ] in
  Alcotest.(check int) "packets" 4 (Testbed.Workload.length w);
  Alcotest.(check int) "flows" 2 (Testbed.Workload.flows w)

let workload_loops () =
  let w = Testbed.Workload.make ~name:"t" [ Nf.Packet.make ~src_port:7 () ] in
  Alcotest.(check int) "looped" 7
    (Testbed.Workload.nth_looped w 12345).Nf.Packet.src_port

let traffic_sizes () =
  let z = Testbed.Traffic.zipfian ~scale:`Quick ~seed:1 () in
  let packets, flows = Testbed.Traffic.sizes `Quick `Zipf in
  Alcotest.(check int) "zipf packets" packets (Testbed.Workload.length z);
  Alcotest.(check bool) "zipf flows close" true
    (abs (Testbed.Workload.flows z - flows) < flows / 2);
  let u = Testbed.Traffic.unirand ~scale:`Quick ~seed:1 () in
  let packets, flows = Testbed.Traffic.sizes `Quick `Uni in
  Alcotest.(check int) "uni packets" packets (Testbed.Workload.length u);
  Alcotest.(check bool) "uni flows" true
    (Testbed.Workload.flows u > (flows * 95) / 100)

let traffic_zipf_is_skewed () =
  let z = Testbed.Traffic.zipfian ~scale:`Quick ~seed:2 () in
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      let k = Nf.Packet.flow_key p in
      Hashtbl.replace counts k (1 + (try Hashtbl.find counts k with Not_found -> 0)))
    z.Testbed.Workload.packets;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  let total = Testbed.Workload.length z in
  (* the heaviest flow dominates in a Zipf(1.26) draw *)
  Alcotest.(check bool) "skewed" true (top * 10 > total)

let unirand_castan_sized () =
  let w = Testbed.Traffic.unirand_castan ~seed:1 ~flows:40 in
  Alcotest.(check int) "packets" 40 (Testbed.Workload.length w);
  Alcotest.(check bool) "flows" true (Testbed.Workload.flows w >= 39)

(* ---------------- DUT ---------------- *)

let dut_nop_calibration () =
  let dut = Testbed.Dut.create (Nf.Registry.nop ()) in
  (* warm past the descriptor ring and mbuf pool cold misses *)
  for _ = 1 to 5000 do ignore (Testbed.Dut.process dut (Nf.Packet.make ())) done;
  let s = Testbed.Dut.process dut (Nf.Packet.make ()) in
  Alcotest.(check int) "NOP instrs = 271 (Table 2)" 271 s.Testbed.Dut.instrs;
  Alcotest.(check int) "NOP misses = 1 (Table 3)" 1 s.Testbed.Dut.l3_misses;
  Alcotest.(check bool) "NOP cycles ~ 3.45Mpps" true
    (s.Testbed.Dut.cycles > 850 && s.Testbed.Dut.cycles < 1100)

let dut_deterministic () =
  let run () =
    let dut = Testbed.Dut.create (Nf.Registry.find "lpm-btrie") in
    let w = Testbed.Traffic.zipfian ~scale:`Quick ~seed:4 () in
    Array.to_list (Testbed.Dut.replay dut w ~samples:500)
  in
  Alcotest.(check bool) "replays identical" true (run () = run ())

let dut_counts_nf_work () =
  let dut = Testbed.Dut.create (Nf.Registry.find "lpm-btrie") in
  let deep = Nf.Packet.make ~dst_ip:0x0A010203 () (* 10.1.2.3, the /32 *) in
  let shallow = Nf.Packet.make ~dst_ip:0x30000001 () (* no match *) in
  let s_deep = Testbed.Dut.process dut deep in
  let s_shallow = Testbed.Dut.process dut shallow in
  Alcotest.(check bool) "deep trie path costs more instructions" true
    (s_deep.Testbed.Dut.instrs > s_shallow.Testbed.Dut.instrs)

(* ---------------- TG measurements ---------------- *)

let tg_latency_includes_base () =
  let m = Testbed.Tg.nop_baseline ~samples:2000 () in
  let med = Testbed.Tg.median_latency_ns m in
  Alcotest.(check bool) "around 4.3us like Fig. 4" true
    (med > 4150.0 && med < 4450.0)

let tg_throughput_sane () =
  let m = Testbed.Tg.nop_baseline ~samples:8000 () in
  let t = Testbed.Tg.max_throughput_mpps m in
  Alcotest.(check bool) "NOP ~3.45Mpps like Table 1" true (t > 3.0 && t < 3.9)

let tg_adversarial_slower () =
  (* UniRand must cost the direct-lookup LPM throughput vs 1 Packet *)
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let one = Testbed.Tg.measure ~samples:6000 nf (Testbed.Traffic.one_packet ()) in
  let uni =
    Testbed.Tg.measure ~samples:6000 nf (Testbed.Traffic.unirand ~scale:`Quick ~seed:5 ())
  in
  Alcotest.(check bool) "unirand reduces throughput" true
    (Testbed.Tg.max_throughput_mpps uni < Testbed.Tg.max_throughput_mpps one);
  Alcotest.(check bool) "unirand raises latency" true
    (Testbed.Tg.median_latency_ns uni > Testbed.Tg.median_latency_ns one)

let tg_dropped_still_measured () =
  (* ICMP is dropped by the NAT but still produces a latency sample (§5.1) *)
  let nf = Nf.Registry.find "nat-hash-table" in
  let w = Testbed.Workload.make ~name:"icmp" [ Nf.Packet.make ~proto:1 () ] in
  let m = Testbed.Tg.measure ~samples:100 nf w in
  Alcotest.(check int) "all measured" 100 (Array.length m.Testbed.Tg.latencies_ns)

let tg_measure_deterministic () =
  let nf = Nf.Registry.find "lpm-btrie" in
  let w = Testbed.Traffic.zipfian ~scale:`Quick ~seed:6 () in
  let a = Testbed.Tg.measure ~seed:9 ~samples:500 nf w in
  let b = Testbed.Tg.measure ~seed:9 ~samples:500 nf w in
  Alcotest.(check bool) "same seeds, same CDF" true
    (a.Testbed.Tg.latencies_ns = b.Testbed.Tg.latencies_ns)

let loss_model_monotone () =
  (* a faster rate can only lose more *)
  let nf = Nf.Registry.nop () in
  let m = Testbed.Tg.measure ~samples:4000 nf (Testbed.Traffic.one_packet ()) in
  let t1 = Testbed.Tg.max_throughput_mpps ~loss_target:0.001 m in
  let t2 = Testbed.Tg.max_throughput_mpps ~loss_target:0.05 m in
  Alcotest.(check bool) "looser target, higher rate" true (t2 >= t1)

let traffic_mix_fractions () =
  let a = Testbed.Workload.make ~name:"A" [ Nf.Packet.make ~src_port:1 () ] in
  let b = Testbed.Workload.make ~name:"B"
      (List.init 1000 (fun k -> Nf.Packet.make ~src_port:(2000 + k) ())) in
  let w = Testbed.Traffic.mix ~seed:1 ~fraction:0.25 a b in
  Alcotest.(check int) "length of longer input" 1000 (Testbed.Workload.length w);
  let from_a =
    Array.to_list w.Testbed.Workload.packets
    |> List.filter (fun (p : Nf.Packet.t) -> p.src_port = 1)
    |> List.length
  in
  Alcotest.(check bool) "roughly a quarter" true (from_a > 180 && from_a < 320)

let latency_under_load_grows_with_rate () =
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let m = Testbed.Tg.measure ~samples:6000 nf (Testbed.Traffic.unirand ~scale:`Quick ~seed:8 ()) in
  let med rate =
    let cdf, _ = Testbed.Tg.latency_under_load ~rate_mpps:rate m in
    Util.Stats.quantile cdf 0.99
  in
  Alcotest.(check bool) "queueing grows with offered load" true
    (med 3.2 >= med 1.0)

(* One queue walk serves both views: the packets that get no sojourn
   sample are exactly the ones drops_at_rate counts, the samples fill a
   prefix of the output (what latency_under_load reads), and recording
   them does not change the walk. *)
let one_queue_walk =
  QCheck.Test.make ~name:"sojourn samples + drops = packets" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 300) (float_range 1e-8 2e-6))
        (float_range 0.05 14.88) (int_range 1 32))
    (fun (service, rate_mpps, queue_depth) ->
      let service_s = Array.of_list service in
      let n = Array.length service_s in
      let rate_pps = rate_mpps *. 1e6 in
      let drops = Testbed.Tg.drops_at_rate ~queue_depth ~service_s rate_pps in
      let sojourn_ns = Array.make n Float.nan in
      let drops' =
        Testbed.Tg.drops_at_rate ~queue_depth ~service_s ~sojourn_ns rate_pps
      in
      let samples =
        Array.fold_left
          (fun k x -> if Float.is_nan x then k else k + 1)
          0 sojourn_ns
      in
      drops' = drops
      && n - samples = drops
      && Array.for_all
           (fun x -> not (Float.is_nan x))
           (Array.sub sojourn_ns 0 (n - drops)))

let ddio_improves_uniformly () =
  let cases = [ Nf.Registry.nop (); Nf.Registry.find "lpm-btrie" ] in
  let deltas =
    List.map
      (fun nf ->
        let med ddio =
          Util.Stats.median
            (Testbed.Tg.cycles_cdf
               (Testbed.Tg.measure ~samples:3000 ~ddio nf (Testbed.Traffic.one_packet ())))
        in
        med false -. med true)
      cases
  in
  List.iter
    (fun d -> Alcotest.(check bool) "ddio saves the DRAM trip" true (d > 200.0))
    deltas;
  (* ...and saves the same amount for everyone *)
  match deltas with
  | [ a; b ] -> Alcotest.(check (float 30.0)) "uniform improvement" a b
  | _ -> assert false

let prefetch_harmless_for_nf_traffic () =
  let nf = Nf.Registry.find "lpm-1stage-dl" in
  let w = Testbed.Traffic.zipfian ~scale:`Quick ~seed:9 () in
  let med prefetch =
    Util.Stats.median
      (Testbed.Tg.cycles_cdf (Testbed.Tg.measure ~samples:3000 ~prefetch nf w))
  in
  Alcotest.(check (float 25.0)) "prefetcher changes little" (med false) (med true)

let tests =
  [
    qtest pcap_roundtrip;
    Alcotest.test_case "pcap file roundtrip" `Quick pcap_file_roundtrip;
    Alcotest.test_case "pcap magic" `Quick pcap_header_magic;
    qtest pcap_checksum_valid;
    Alcotest.test_case "workload flows" `Quick workload_flow_count;
    Alcotest.test_case "workload loops" `Quick workload_loops;
    Alcotest.test_case "traffic sizes" `Quick traffic_sizes;
    Alcotest.test_case "zipf skew" `Quick traffic_zipf_is_skewed;
    Alcotest.test_case "unirand castan" `Quick unirand_castan_sized;
    Alcotest.test_case "DUT NOP calibration" `Quick dut_nop_calibration;
    Alcotest.test_case "DUT deterministic" `Quick dut_deterministic;
    Alcotest.test_case "DUT counts NF work" `Quick dut_counts_nf_work;
    Alcotest.test_case "TG latency base" `Quick tg_latency_includes_base;
    Alcotest.test_case "TG throughput" `Quick tg_throughput_sane;
    Alcotest.test_case "TG adversarial slower" `Slow tg_adversarial_slower;
    Alcotest.test_case "TG measures drops" `Quick tg_dropped_still_measured;
    Alcotest.test_case "TG deterministic" `Quick tg_measure_deterministic;
    Alcotest.test_case "loss model monotone" `Quick loss_model_monotone;
    Alcotest.test_case "traffic mix" `Quick traffic_mix_fractions;
    Alcotest.test_case "latency under load" `Quick latency_under_load_grows_with_rate;
    qtest one_queue_walk;
    Alcotest.test_case "ddio uniform win" `Quick ddio_improves_uniformly;
    Alcotest.test_case "prefetch harmless" `Quick prefetch_harmless_for_nf_traffic;
  ]
