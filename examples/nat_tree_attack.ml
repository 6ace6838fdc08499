(* Algorithmic complexity attack (§5.3): skew the NAT's unbalanced binary
   tree into a linked list.  Compares CASTAN's synthesized workload with the
   hand-crafted Manual one (monotone ports) and shows the red-black tree
   shrugging the same attack off.

     dune exec examples/nat_tree_attack.exe *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let measure_nf nf_name =
  let nf = Nf.Registry.find nf_name in
  let config =
    { (Castan.Analyze.default_config ()) with
      n_packets = Some (if smoke then 8 else 30) }
  in
  let o = Castan.Analyze.run ~config nf in
  let samples = if smoke then 500 else 8_000 in
  let nop = Testbed.Tg.nop_baseline ~samples () in
  let workloads =
    [ ("Zipfian", Testbed.Traffic.zipfian ~seed:5 ()); ("CASTAN", o.workload) ]
    @
    match nf.Nf.Nf_def.manual with
    | Some gen ->
        [ ("Manual",
           Testbed.Workload.make ~name:"Manual"
             (gen (Util.Rng.create 5) 30)) ]
    | None -> []
  in
  Printf.printf "\n%s:\n" nf_name;
  List.iter
    (fun (label, w) ->
      let m = Testbed.Tg.measure ~samples nf w in
      Printf.printf "  %-8s dev %+5.0f ns, %4d instrs/pkt\n" label
        (Testbed.Tg.deviation_from_nop_ns m ~nop)
        (Testbed.Tg.median_instrs m))
    workloads;
  o

let () =
  let o = measure_nf "nat-unbalanced-tree" in
  print_endline "\nfirst packets of the CASTAN workload (note the key order):";
  Array.iteri
    (fun k p -> if k < 6 then Printf.printf "  %s\n" (Nf.Packet.to_string p))
    o.workload.Testbed.Workload.packets;
  (* The same attack against the re-balancing tree goes nowhere (§5.3,
     Fig. 11): rebalancing creates local maxima the search cannot escape. *)
  ignore (measure_nf "nat-red-black-tree")
