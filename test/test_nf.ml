(* Tests for castan.nf: LPM implementations against a reference oracle,
   flow tables against a model map, red-black tree invariants, and the
   NAT/LB packet semantics. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- LPM oracle equivalence ---------------- *)

let lpm_oracle_gen =
  (* mix interesting destinations (inside the route families) and random *)
  QCheck.Gen.(
    oneof
      [
        map2
          (fun fam low -> ((10 + fam) lsl 24) lor low)
          (int_range 0 7) (int_range 0 0xFFFFFF);
        int_range 0 0xFFFFFFFF;
      ])

let lpm_matches_oracle name routes =
  let nf = Nf.Registry.find name in
  let mem = ref (Nf.Nf_def.fresh_memory nf) in
  let entry = Ir.Cfg.entry_func nf.program in
  QCheck.Test.make ~name:(name ^ " matches reference LPM") ~count:400
    (QCheck.make lpm_oracle_gen)
    (fun dst ->
      let p = Nf.Packet.make ~dst_ip:dst () in
      let o =
        Ir.Interp.call nf.program ~mem ~hooks:Ir.Interp.no_hooks "process"
          (Nf.Packet.args_for entry p)
      in
      o.Ir.Interp.ret = Nf.Config.lpm_lookup routes dst)

let routes27 =
  List.filter (fun (r : Nf.Config.route) -> r.len <= 27) Nf.Config.routes27

(* ---------------- flow tables vs a model map ---------------- *)

type harness = {
  lookup : int -> int;
  insert : int -> int -> unit;
  mem : unit -> int Ir.Memory.t;
  regions : Ir.Memory.spec list;
}

let harness (ft : Nf.Flowtable.t) =
  let prog =
    Ir.Lower.program
      (Ir.Dsl.program ~name:"h" ~entry:Nf.Flowtable.lookup_name
         ~regions:ft.regions ~heap_bytes:ft.heap_bytes ft.functions)
  in
  let mem = ref (Ir.Memory.create ~regions:ft.regions ~heap_bytes:ft.heap_bytes ~inject:Fun.id) in
  let hash key =
    match ft.hash with Some h -> h.Ir.Hashes.apply key | None -> 0
  in
  {
    lookup =
      (fun key ->
        (Ir.Interp.call prog ~mem ~hooks:Ir.Interp.no_hooks
           Nf.Flowtable.lookup_name [ key; hash key ])
          .ret);
    insert =
      (fun key value ->
        ignore
          (Ir.Interp.call prog ~mem ~hooks:Ir.Interp.no_hooks
             Nf.Flowtable.insert_name [ key; hash key; value ]));
    mem = (fun () -> !mem);
    regions = ft.regions;
  }

let flowtable_model_test name make_ft =
  QCheck.Test.make ~name:(name ^ " behaves like a map") ~count:30
    QCheck.(small_int)
    (fun seed ->
      let h = harness (make_ft ()) in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let rng = Util.Rng.create (77 + seed) in
      let ok = ref true in
      for step = 1 to 120 do
        let key = 1 + Util.Rng.int rng 4096 in
        if Util.Rng.bool rng then begin
          (* lookup must agree with the model *)
          let expect = match Hashtbl.find_opt model key with Some v -> v | None -> 0 in
          if h.lookup key <> expect then ok := false
        end
        else if not (Hashtbl.mem model key) then begin
          let value = 1 + (step mod 1000) in
          h.insert key value;
          Hashtbl.replace model key value
        end
      done;
      !ok)

(* ---------------- red-black tree invariants ---------------- *)

(* Walk the tree straight out of NFIR memory. *)
let rec rb_check mem node ~lo ~hi =
  (* returns black height; raises on violation *)
  if node = 0 then 1
  else begin
    let fld off = Ir.Memory.read mem ~addr:(node + off) ~width:8 in
    let key = fld 0 and left = fld 16 and right = fld 24 and color = fld 40 in
    if key <= lo || key >= hi then failwith "BST order violated";
    if color = 1 then begin
      (* red node: children must be black *)
      let child_color c =
        if c = 0 then 0 else Ir.Memory.read mem ~addr:(c + 40) ~width:8
      in
      if child_color left = 1 || child_color right = 1 then
        failwith "red-red violation"
    end;
    let bl = rb_check mem left ~lo ~hi:key in
    let br = rb_check mem right ~lo:key ~hi in
    if bl <> br then failwith "black-height violated";
    bl + if color = 0 then 1 else 0
  end

let rb_invariants_hold =
  QCheck.Test.make ~name:"red-black invariants after random inserts" ~count:20
    QCheck.small_int
    (fun seed ->
      let ft = Nf.Flowtable_rb.make () in
      let h = harness ft in
      let rng = Util.Rng.create (31 + seed) in
      let inserted = Hashtbl.create 64 in
      for v = 1 to 200 do
        let key = 1 + Util.Rng.int rng 100_000 in
        if not (Hashtbl.mem inserted key) then begin
          h.insert key v;
          Hashtbl.replace inserted key ()
        end
      done;
      let mem = h.mem () in
      let root_region = Ir.Memory.region_named mem "rb_root" in
      let root = Ir.Memory.read mem ~addr:root_region.Ir.Memory.base ~width:8 in
      let root_color =
        if root = 0 then 0 else Ir.Memory.read mem ~addr:(root + 40) ~width:8
      in
      root_color = 0
      && match rb_check mem root ~lo:min_int ~hi:max_int with
         | _ -> true
         | exception Failure _ -> false)

let rb_stays_shallow_bst_degenerates () =
  (* sorted insertion: the unbalanced tree becomes a list, the RB tree stays
     logarithmic — the heart of Fig. 9 vs Fig. 11 *)
  let depth_of mem root_name =
    let region = Ir.Memory.region_named mem root_name in
    let root = Ir.Memory.read mem ~addr:region.Ir.Memory.base ~width:8 in
    let rec go node =
      if node = 0 then 0
      else
        let l = Ir.Memory.read mem ~addr:(node + 16) ~width:8 in
        let r = Ir.Memory.read mem ~addr:(node + 24) ~width:8 in
        1 + max (go l) (go r)
    in
    go root
  in
  let n = 256 in
  let bst = harness (Nf.Flowtable_bst.make ()) in
  for k = 1 to n do bst.insert k k done;
  let rb = harness (Nf.Flowtable_rb.make ()) in
  for k = 1 to n do rb.insert k k done;
  Alcotest.(check int) "bst degenerates to a list" n (depth_of (bst.mem ()) "bst_root");
  let rb_depth = depth_of (rb.mem ()) "rb_root" in
  Alcotest.(check bool) "rb stays logarithmic" true (rb_depth <= 2 * 9)

let chain_collisions_grow_chains () =
  (* keys in the same bucket make lookups walk the chain *)
  let ft = Nf.Flowtable_chain.make () in
  let h = harness ft in
  let hash = (Option.get ft.hash).Ir.Hashes.apply in
  (* find several keys colliding on the bucket index *)
  let target = hash 1 land (Nf.Config.chain_buckets - 1) in
  let colliding = ref [] in
  let k = ref 1 in
  while List.length !colliding < 8 do
    if hash !k land (Nf.Config.chain_buckets - 1) = target then
      colliding := !k :: !colliding;
    incr k
  done;
  List.iteri (fun i key -> h.insert key (i + 1)) !colliding;
  (* all retrievable despite the collisions *)
  List.iteri
    (fun i key -> Alcotest.(check int) "chained value" (i + 1) (h.lookup key))
    !colliding

let ring_probe_sequence () =
  let ft = Nf.Flowtable_ring.make () in
  let h = harness ft in
  (* two keys with the same ring index force linear probing *)
  let hash = (Option.get ft.hash).Ir.Hashes.apply in
  let k1 = 1 in
  let target = hash k1 land (Nf.Config.ring_entries - 1) in
  let k2 = ref 2 in
  while hash !k2 land (Nf.Config.ring_entries - 1) <> target do incr k2 done;
  h.insert k1 111;
  h.insert !k2 222;
  Alcotest.(check int) "first" 111 (h.lookup k1);
  Alcotest.(check int) "probed" 222 (h.lookup !k2)

(* ---------------- NAT / LB semantics ---------------- *)

let run_nf (nf : Nf.Nf_def.t) mem p =
  let entry = Ir.Cfg.entry_func nf.program in
  (Ir.Interp.call nf.program ~mem ~hooks:Ir.Interp.no_hooks "process"
     (Nf.Packet.args_for entry p))
    .ret

let nat_flow_stability name =
  QCheck.Test.make ~name:(name ^ ": same flow, same translation") ~count:20
    QCheck.small_int
    (fun seed ->
      let nf = Nf.Registry.find name in
      let mem = ref (Nf.Nf_def.fresh_memory nf) in
      let rng = Util.Rng.create (991 + seed) in
      let flows = List.init 10 (fun _ -> Testbed.Traffic.random_packet rng) in
      List.for_all
        (fun p ->
          let first = run_nf nf mem p in
          let second = run_nf nf mem p in
          first = second && first <> 0)
        flows)

let nat_drops_non_l4 () =
  let nf = Nf.Registry.find "nat-hash-table" in
  let mem = ref (Nf.Nf_def.fresh_memory nf) in
  let p = Nf.Packet.make ~proto:1 (* ICMP *) () in
  Alcotest.(check int) "dropped" 0 (run_nf nf mem p)

let lb_static_route_non_vip () =
  let nf = Nf.Registry.find "lb-hash-table" in
  let mem = ref (Nf.Nf_def.fresh_memory nf) in
  let p = Nf.Packet.make ~dst_ip:0x08080808 () in
  Alcotest.(check int) "statically routed" 1 (run_nf nf mem p)

let lb_round_robin () =
  let nf = Nf.Registry.find "lb-hash-table" in
  let mem = ref (Nf.Nf_def.fresh_memory nf) in
  let backends =
    List.init (2 * Nf.Config.n_backends) (fun k ->
        let p = Nf.Packet.make ~dst_ip:Nf.Config.vip ~src_ip:(0x0A000000 + k)
            ~src_port:(2000 + k) () in
        run_nf nf mem p)
  in
  (* round robin: first n_backends flows hit distinct backends *)
  let firsts = List.filteri (fun i _ -> i < Nf.Config.n_backends) backends in
  Alcotest.(check int) "all backends used" Nf.Config.n_backends
    (List.length (List.sort_uniq compare firsts));
  (* pinned: re-sending flow 0 gives its original backend *)
  let p0 =
    Nf.Packet.make ~dst_ip:Nf.Config.vip ~src_ip:0x0A000000 ~src_port:2000 ()
  in
  Alcotest.(check int) "sticky" (List.hd backends) (run_nf nf mem p0)

let lb_sticky_across_tables =
  QCheck.Test.make ~name:"LB backend choice is sticky (all tables)" ~count:8
    (QCheck.oneofl
       [ "lb-hash-table"; "lb-hash-ring"; "lb-red-black-tree"; "lb-unbalanced-tree" ])
    (fun name ->
      let nf = Nf.Registry.find name in
      let mem = ref (Nf.Nf_def.fresh_memory nf) in
      let rng = Util.Rng.create 55 in
      let flows =
        List.init 12 (fun _ ->
            nf.shape (Testbed.Traffic.random_packet rng))
      in
      let first = List.map (fun p -> run_nf nf mem p) flows in
      let second = List.map (fun p -> run_nf nf mem p) flows in
      first = second)

let registry_complete () =
  Alcotest.(check int) "11 NFs + NOP" 12 (List.length Nf.Registry.names);
  List.iter
    (fun name -> ignore (Nf.Registry.find name))
    Nf.Registry.names;
  match Nf.Registry.find "bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown-NF rejection"

let manual_workloads_exist_where_paper_has_them () =
  let has_manual n = (Nf.Registry.find n).Nf.Nf_def.manual <> None in
  Alcotest.(check bool) "trie" true (has_manual "lpm-btrie");
  Alcotest.(check bool) "nat bst" true (has_manual "nat-unbalanced-tree");
  Alcotest.(check bool) "lb bst" true (has_manual "lb-unbalanced-tree");
  Alcotest.(check bool) "no manual for rb" false (has_manual "nat-red-black-tree");
  Alcotest.(check bool) "no manual for dl" false (has_manual "lpm-1stage-dl")

let manual_nat_skews () =
  let nf = Nf.Registry.find "nat-unbalanced-tree" in
  let gen = Option.get nf.manual in
  let pkts = gen (Util.Rng.create 1) 50 in
  Alcotest.(check int) "requested size" 50 (List.length pkts);
  (* monotone source ports = monotone keys = full skew *)
  let ports = List.map (fun (p : Nf.Packet.t) -> p.src_port) pkts in
  Alcotest.(check bool) "monotone" true (List.sort compare ports = ports)

(* ---------------- every registry NF, pinned ---------------- *)

(* Destinations at and around the deepest route of each of the 8 route
   families, (10+f).(f+1).(f+2).(f+3), where the LPM tables differ. *)
let route_probes =
  List.concat_map
    (fun f ->
      let deepest =
        ((10 + f) lsl 24) lor ((f + 1) lsl 16) lor ((f + 2) lsl 8) lor (f + 3)
      in
      List.map
        (fun d -> deepest + d)
        [ -256; -64; -33; -32; -1; 0; 1; 31; 32; 64; 256 ])
    (List.init 8 Fun.id)

(* Everything building an NF yields, as text: its NFIR listing; its region
   layout with each region's initial values (all of them in a region of up
   to 2^16 elements; else an even stride, scattered indices, and the
   entries a /27 or /24 table holds for [route_probes]); its heap; its
   workload size; its rainbow key spaces with a sample of their keys; its
   shaper on a fixed packet; and its first Manual packets. *)
let nf_fingerprint name =
  let nf = Nf.Registry.find name in
  let b = Buffer.create 8192 in
  Buffer.add_string b (Format.asprintf "%a" Ir.Cfg.pp nf.program);
  List.iter
    (fun (s : Ir.Memory.spec) ->
      Printf.bprintf b "region %s width %d count %d:" s.s_name s.s_elem_width
        s.s_count;
      let sample idx =
        Printf.bprintf b " %d" (s.s_init (idx mod s.s_count))
      in
      if s.s_count <= 1 lsl 16 then
        for idx = 0 to s.s_count - 1 do
          sample idx
        done
      else begin
        for k = 0 to 255 do
          sample (k * (s.s_count / 256));
          sample (k * 0x9E3779B1 land max_int)
        done;
        List.iter
          (fun ip ->
            sample (ip lsr 5);
            sample (ip lsr 8))
          route_probes;
        sample (s.s_count - 1)
      end;
      Buffer.add_char b '\n')
    nf.program.regions;
  Printf.bprintf b "heap %d\ncastan_packets %d\n" nf.program.heap_bytes
    nf.castan_packets;
  List.iter
    (fun (hash, (ks : Hashrev.Rainbow.keyspace)) ->
      Printf.bprintf b "keyspace %s %s %d bits %d:" hash ks.ks_name ks.count
        (Ir.Hashes.lookup hash).bits;
      for k = 0 to 15 do
        Printf.bprintf b " %d"
          (ks.key_of_index (k * 0x9E3779B1 land max_int mod ks.count))
      done;
      Buffer.add_char b '\n')
    nf.keyspaces;
  Printf.bprintf b "shape %s\n"
    (Nf.Packet.to_string (nf.shape (Nf.Packet.make ~dst_ip:0x08080808 ())));
  Option.iter
    (fun gen ->
      List.iter
        (fun p -> Printf.bprintf b "manual %s\n" (Nf.Packet.to_string p))
        (gen (Util.Rng.create 1) 4))
    nf.manual;
  Buffer.contents b

(* [nf_fingerprint]'s MD5 per NF.  A change meant to leave every NF as it
   is (a refactor of the builders or of [Nf.Config]) must leave every digest
   in place. *)
let registry_digests =
  [
    ("lb-hash-table", "c454a5f3818ebe89fd6c46e1f738cfe3");
    ("lb-hash-ring", "4bb5d4e524e9632bbbcfb318dfbd2d42");
    ("lb-red-black-tree", "62bf671ef7f78b1c92f14a83d1ba3616");
    ("lb-unbalanced-tree", "aa1274ed0fbaffe6c5cdb23dcf2d2a6a");
    ("lpm-btrie", "022b6fbfc7e28708007ff4aa6385abd8");
    ("lpm-1stage-dl", "e3642d9071b2284d2b42307c519ac9b5");
    ("lpm-2stage-dl", "476f848ffb4ad450aca8272c7e97c160");
    ("nat-hash-table", "b8c0f28489f56cf875ac3a502d944c85");
    ("nat-hash-ring", "cbef864713710d6cf5371dc95439bd8f");
    ("nat-red-black-tree", "e80937e9ca07c9d3a8d1ac6a112b9b54");
    ("nat-unbalanced-tree", "19e5db4af1d7b099af1e9429e7cd3a01");
    ("nop", "9dfe4495c53b9da9de9c5d35fcd454b7");
  ]

let registry_pinned () =
  Alcotest.(check (list string)) "names" Nf.Registry.names
    (List.map fst registry_digests);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected
        (Digest.to_hex (Digest.string (nf_fingerprint name))))
    registry_digests

let packet_pcap_fields =
  QCheck.Test.make ~name:"packet field get/set roundtrip" ~count:200
    QCheck.(pair (oneofl Ir.Expr.all_fields) (int_range 0 65535))
    (fun (f, v) ->
      let p = Nf.Packet.make () in
      Nf.Packet.field (Nf.Packet.with_field p f v) f = v)

let tests =
  [
    qtest (lpm_matches_oracle "lpm-btrie" Nf.Config.routes32);
    qtest (lpm_matches_oracle "lpm-1stage-dl" routes27);
    qtest (lpm_matches_oracle "lpm-2stage-dl" Nf.Config.routes32);
    qtest (flowtable_model_test "hash-table" Nf.Flowtable_chain.make);
    qtest (flowtable_model_test "hash-ring" Nf.Flowtable_ring.make);
    qtest (flowtable_model_test "unbalanced-tree" Nf.Flowtable_bst.make);
    qtest (flowtable_model_test "red-black-tree" Nf.Flowtable_rb.make);
    qtest rb_invariants_hold;
    Alcotest.test_case "bst degenerates, rb doesn't" `Quick rb_stays_shallow_bst_degenerates;
    Alcotest.test_case "chain collisions" `Quick chain_collisions_grow_chains;
    Alcotest.test_case "ring probing" `Quick ring_probe_sequence;
    qtest (nat_flow_stability "nat-hash-table");
    qtest (nat_flow_stability "nat-hash-ring");
    qtest (nat_flow_stability "nat-unbalanced-tree");
    qtest (nat_flow_stability "nat-red-black-tree");
    Alcotest.test_case "nat drops non-L4" `Quick nat_drops_non_l4;
    Alcotest.test_case "lb static route" `Quick lb_static_route_non_vip;
    Alcotest.test_case "lb round robin" `Quick lb_round_robin;
    qtest lb_sticky_across_tables;
    Alcotest.test_case "registry" `Quick registry_complete;
    Alcotest.test_case "registry NFs pinned" `Quick registry_pinned;
    Alcotest.test_case "manual availability" `Quick manual_workloads_exist_where_paper_has_them;
    Alcotest.test_case "manual NAT skew" `Quick manual_nat_skews;
    qtest packet_pcap_fields;
  ]
