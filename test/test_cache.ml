(* Tests for castan.cache: LRU levels, the inclusive hierarchy, virtual
   memory, contention-set discovery, and the adversarial cache model. *)

let qtest = QCheck_alcotest.to_alcotest
let geom = Cache.Geometry.xeon_e5_2667v2

let geometry_matches_paper () =
  Alcotest.(check int) "l1 sets" 64 (Cache.Geometry.sets geom geom.l1d);
  Alcotest.(check int) "l2 sets" 512 (Cache.Geometry.sets geom geom.l2);
  Alcotest.(check int) "l3 assoc" 20 (Cache.Geometry.l3_assoc geom);
  Alcotest.(check int) "l3 sets/slice" 2560 (Cache.Geometry.l3_sets_per_slice geom);
  (* 25.6MB exactly *)
  Alcotest.(check int) "l3 size" (25600 * 1024)
    (Cache.Geometry.l3_sets_per_slice geom * geom.l3_slices * geom.l3.ways * geom.line)

let level_hit_after_insert () =
  let l = Cache.Level.create ~sets:4 ~ways:2 in
  Alcotest.(check bool) "cold miss" false (Cache.Level.access l ~set:0 ~tag:10);
  Alcotest.(check bool) "hit" true (Cache.Level.access l ~set:0 ~tag:10)

let level_lru_eviction () =
  let l = Cache.Level.create ~sets:1 ~ways:2 in
  ignore (Cache.Level.access l ~set:0 ~tag:1);
  ignore (Cache.Level.access l ~set:0 ~tag:2);
  ignore (Cache.Level.access l ~set:0 ~tag:1) (* promote 1 *);
  ignore (Cache.Level.access l ~set:0 ~tag:3) (* evicts 2, the LRU *);
  Alcotest.(check int) "evicted LRU" 2 (Cache.Level.last_evicted l);
  Alcotest.(check bool) "1 stays" true (Cache.Level.resident l ~set:0 ~tag:1);
  Alcotest.(check bool) "2 gone" false (Cache.Level.resident l ~set:0 ~tag:2)

let level_invalidate () =
  let l = Cache.Level.create ~sets:1 ~ways:4 in
  ignore (Cache.Level.access l ~set:0 ~tag:7);
  Cache.Level.invalidate l ~set:0 ~tag:7;
  Alcotest.(check bool) "gone" false (Cache.Level.resident l ~set:0 ~tag:7);
  Alcotest.(check int) "occupancy" 0 (Cache.Level.occupancy l)

let level_cycle_thrashes =
  QCheck.Test.make ~name:"cycling ways+1 tags always misses" ~count:50
    (QCheck.int_range 2 8)
    (fun ways ->
      let l = Cache.Level.create ~sets:1 ~ways in
      (* warm up one full cycle *)
      for t = 0 to ways do
        ignore (Cache.Level.access l ~set:0 ~tag:t)
      done;
      (* from now on every access in the cycle must miss (LRU worst case) *)
      let all_missed = ref true in
      for round = 1 to 3 do
        ignore round;
        for t = 0 to ways do
          if Cache.Level.access l ~set:0 ~tag:t then all_missed := false
        done
      done;
      !all_missed)

(* A flush must leave a level exactly as [create] does: from then on, a
   reused level and a newly created one answer every access alike.  Tags
   range over a few times the ways, so sets both hit and evict, and
   invalidations free ways inside filled sets. *)
type level_op = Access of int * int | Invalidate of int * int | Flush

let level_ops =
  let open QCheck.Gen in
  let gen =
    int_range 1 8 >>= fun sets ->
    int_range 1 8 >>= fun ways ->
    let set = int_bound (sets - 1) and tag = int_bound (3 * ways) in
    let op =
      frequency
        [
          (16, map2 (fun s t -> Access (s, t)) set tag);
          (2, map2 (fun s t -> Invalidate (s, t)) set tag);
          (1, return Flush);
        ]
    in
    list_size (int_range 0 300) op >|= fun ops -> (sets, ways, ops)
  in
  let print (sets, ways, ops) =
    Printf.sprintf "sets=%d ways=%d [%s]" sets ways
      (String.concat "; "
         (List.map
            (function
              | Access (s, t) -> Printf.sprintf "A(%d,%d)" s t
              | Invalidate (s, t) -> Printf.sprintf "I(%d,%d)" s t
              | Flush -> "F")
            ops))
  in
  QCheck.make ~print gen

let level_flush_equals_fresh =
  QCheck.Test.make ~name:"flushed level behaves as a fresh one" ~count:300 level_ops
    (fun (sets, ways, ops) ->
      let reused = Cache.Level.create ~sets ~ways in
      let fresh = ref (Cache.Level.create ~sets ~ways) in
      List.for_all
        (function
          | Access (set, tag) ->
              let hit = Cache.Level.access reused ~set ~tag in
              hit = Cache.Level.access !fresh ~set ~tag
              && Cache.Level.last_evicted reused = Cache.Level.last_evicted !fresh
          | Invalidate (set, tag) ->
              Cache.Level.invalidate reused ~set ~tag;
              Cache.Level.invalidate !fresh ~set ~tag;
              true
          | Flush ->
              Cache.Level.flush reused;
              fresh := Cache.Level.create ~sets ~ways;
              Cache.Level.occupancy reused = 0
              && Cache.Level.last_evicted reused = -1)
        ops)

(* Level against a list-based LRU model: each set is its resident tags,
   most recently used first.  An access hits when the tag is listed, moves
   it to the front, and on a miss in a full set evicts the last tag; an
   invalidation drops the tag.  Hit/miss, the evicted tag and the number of
   resident lines must match after every operation. *)
let level_matches_lru_model =
  QCheck.Test.make ~name:"level agrees with a list LRU model" ~count:300
    level_ops (fun (sets, ways, ops) ->
      let l = Cache.Level.create ~sets ~ways in
      let model = Array.make sets [] in
      let occupancy () =
        Array.fold_left (fun acc tags -> acc + List.length tags) 0 model
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Access (set, tag) ->
                let tags = model.(set) in
                let hit = List.mem tag tags in
                let others = List.filter (( <> ) tag) tags in
                let evicted =
                  if hit || List.length tags < ways then -1
                  else List.nth tags (ways - 1)
                in
                model.(set) <-
                  tag :: List.filter (( <> ) evicted) others;
                Cache.Level.access l ~set ~tag = hit
                && Cache.Level.last_evicted l = evicted
            | Invalidate (set, tag) ->
                model.(set) <- List.filter (( <> ) tag) model.(set);
                Cache.Level.invalidate l ~set ~tag;
                not (Cache.Level.resident l ~set ~tag)
            | Flush ->
                Array.fill model 0 sets [];
                Cache.Level.flush l;
                true
          in
          agrees && Cache.Level.occupancy l = occupancy ())
        ops)

(* The same at machine level: probing on one reused machine (each probe
   flushes) must time every address array as a fresh hierarchy does.  Most
   addresses are whole slice strides apart, so they share one L1, L2 and
   in-slice L3 set while the hidden hash spreads them over the slices; the
   rest sit one or two lines over.  Arrays past ~160 addresses overflow an
   L3 set, so probes also evict and back-invalidate. *)
let probe_arrays =
  let open QCheck.Gen in
  let stride = Cache.Geometry.l3_sets_per_slice geom * geom.line in
  let addr =
    map2
      (fun k s -> (1 lsl 30) + (k * stride) + (s * geom.line))
      (int_bound 511)
      (frequency [ (6, return 0); (1, int_range 1 2) ])
  in
  QCheck.make
    ~print:(fun arrays ->
      String.concat " | "
        (List.map
           (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
           arrays))
    (list_size (int_range 1 4) (array_size (int_range 1 320) addr))

let probe_reused_equals_fresh =
  QCheck.Test.make ~name:"probing a reused machine equals a fresh hierarchy"
    ~count:30 probe_arrays (fun arrays ->
      let m = Cache.Probe.machine ~slice_seed:0 ~vmem_seed:7 geom in
      List.for_all
        (fun addrs ->
          let reused = Cache.Probe.probe_time m addrs in
          let fresh =
            Cache.Probe.probe_time
              { m with Cache.Probe.hier = Cache.Hierarchy.create geom }
              addrs
          in
          reused = fresh)
        arrays)

let hierarchy_levels_ordered () =
  let h = Cache.Hierarchy.create geom in
  let a = 0x12340 in
  Alcotest.(check bool) "first access from DRAM" true
    (Cache.Hierarchy.access h a = Cache.Hierarchy.Dram);
  Alcotest.(check bool) "second from L1" true
    (Cache.Hierarchy.access h a = Cache.Hierarchy.L1)

let hierarchy_latencies_monotone () =
  let lat = Cache.Hierarchy.latency geom in
  Alcotest.(check bool) "L1<L2<L3<DRAM" true
    (lat L1 < lat L2 && lat L2 < lat L3 && lat L3 < lat Dram)

let hierarchy_inclusive_backinval () =
  let h = Cache.Hierarchy.create geom in
  (* Fill one L3 set past associativity with lines that share the L3 set;
     the victim must also vanish from L1/L2. *)
  let stride = Cache.Geometry.l3_sets_per_slice geom * geom.line in
  (* find lines in the same hidden slice *)
  let target = Cache.Hierarchy.ground_truth_slice h 0 in
  let same_slice =
    List.init 4096 (fun k -> k * stride)
    |> List.filter (fun a -> Cache.Hierarchy.ground_truth_slice h a = target)
  in
  QCheck.assume (List.length same_slice > geom.l3.ways);
  let first = List.hd same_slice in
  ignore (Cache.Hierarchy.access h first);
  (* touch enough same-set lines to evict [first] from L3 *)
  List.iteri
    (fun k a -> if k > 0 && k <= geom.l3.ways then ignore (Cache.Hierarchy.access h a))
    same_slice;
  (* if back-invalidation works, [first] is gone everywhere: DRAM again *)
  Alcotest.(check bool) "back-invalidated" true
    (Cache.Hierarchy.access h first = Cache.Hierarchy.Dram)

let hierarchy_invalidate_line () =
  let h = Cache.Hierarchy.create geom in
  ignore (Cache.Hierarchy.access h 0x5000);
  Cache.Hierarchy.invalidate_line h 0x5000;
  Alcotest.(check bool) "DRAM after invalidate" true
    (Cache.Hierarchy.access h 0x5000 = Cache.Hierarchy.Dram)

(* L1d and L2 index by shift and mask, so a geometry they cannot index that
   way is refused instead of silently mis-indexed. *)
let hierarchy_refuses_non_pow2 () =
  List.iter
    (fun (msg, g) ->
      Alcotest.check_raises msg (Invalid_argument ("Hierarchy.create: " ^ msg))
        (fun () -> ignore (Cache.Hierarchy.create g)))
    [
      ("line size 48 is not a power of two", { geom with line = 48 });
      ( "L1 set count 96 is not a power of two",
        { geom with l1d = { size_kib = 48; ways = 8 } } );
      ( "L2 set count 768 is not a power of two",
        { geom with l2 = { size_kib = 384; ways = 8 } } );
    ]

let vmem_offset_preserved =
  QCheck.Test.make ~name:"vmem preserves bits 0-29" ~count:300
    (QCheck.int_range 0 ((1 lsl 34) - 1))
    (fun vaddr ->
      let v = Cache.Vmem.create ~seed:3 in
      Cache.Vmem.offset_of (Cache.Vmem.translate v vaddr)
      = Cache.Vmem.offset_of vaddr)

let vmem_stable_mapping () =
  let v = Cache.Vmem.create ~seed:4 in
  let a = Cache.Vmem.translate v 0x4_1234_5678 in
  let b = Cache.Vmem.translate v 0x4_1234_5678 in
  Alcotest.(check int) "stable" a b

let vmem_distinct_pages () =
  let v = Cache.Vmem.create ~seed:5 in
  let p0 = Cache.Vmem.physical_page v 0 in
  let p1 = Cache.Vmem.physical_page v 1 in
  Alcotest.(check bool) "no aliasing" true (p0 <> p1)

let probing_detects_contention () =
  let m = Cache.Probe.machine ~slice_seed:0 ~vmem_seed:9 geom in
  let stride = Cache.Geometry.l3_sets_per_slice geom * geom.line in
  let base = 1 lsl 30 in
  (* gather ways+1 lines of one ground-truth slice (cheating for the test
     setup only; discovery itself does not) *)
  let truth a =
    Cache.Hierarchy.ground_truth_slice m.Cache.Probe.hier
      (Cache.Vmem.translate m.Cache.Probe.vmem a)
  in
  let all = List.init 2048 (fun k -> base + (k * stride)) in
  let slice0 = List.filter (fun a -> truth a = truth base) all in
  let contending = List.filteri (fun i _ -> i <= geom.l3.ways) slice0 in
  let below = List.filteri (fun i _ -> i < geom.l3.ways) slice0 in
  let t_contending = Cache.Probe.probe_time m (Array.of_list contending) in
  let t_below = Cache.Probe.probe_time m (Array.of_list below) in
  Alcotest.(check bool) "spill visible" true
    (t_contending - t_below > Cache.Probe.delta geom)

let discovery_matches_ground_truth () =
  let m = Cache.Probe.machine ~slice_seed:0 ~vmem_seed:1 geom in
  let offsets = Cache.Contention.standard_offsets geom ~count:192 in
  let pool = Array.map (fun o -> (1 lsl 30) + o) offsets in
  let sets = Cache.Contention.discover_sets m ~pool in
  Alcotest.(check bool) "several sets" true (List.length sets >= 4);
  let truth a =
    let pa = Cache.Vmem.translate m.Cache.Probe.vmem a in
    ( Cache.Hierarchy.ground_truth_slice m.Cache.Probe.hier pa,
      Cache.Hierarchy.l3_set m.Cache.Probe.hier pa )
  in
  List.iter
    (fun members ->
      match List.map truth members with
      | [] -> ()
      | k0 :: rest ->
          if not (List.for_all (( = ) k0) rest) then
            Alcotest.fail "impure contention set")
    sets

let contention_save_load () =
  let offsets = Cache.Contention.standard_offsets geom ~count:160 in
  let c = Cache.Contention.consistent ~pages:1 ~reboots:1 ~geom ~offsets in
  let path = Filename.temp_file "castan" ".sets" in
  Cache.Contention.save c path;
  let c2 = Cache.Contention.load path in
  Sys.remove path;
  Alcotest.(check int) "classes survive" c.Cache.Contention.n_classes
    c2.Cache.Contention.n_classes;
  Alcotest.(check int) "alpha" c.Cache.Contention.alpha c2.Cache.Contention.alpha;
  List.iter
    (fun (cls, members) ->
      List.iter
        (fun off ->
          Alcotest.(check (option int)) "same class" (Some cls)
            (Cache.Contention.class_of_vaddr c2 off))
        members)
    (Cache.Contention.classes c)

(* A discovery's reboots are pool tasks; the saved sets must not depend on
   how many domains probed them.  The digest was recorded with the serial
   reboot loop. *)
let contention_pinned_across_jobs () =
  let offsets = Cache.Contention.standard_offsets geom ~count:160 in
  let saved jobs =
    let before = Util.Pool.default_jobs () in
    Util.Pool.set_default_jobs jobs;
    let c =
      Fun.protect
        ~finally:(fun () -> Util.Pool.set_default_jobs before)
        (fun () ->
          Cache.Contention.consistent ~pages:1 ~reboots:2 ~geom ~offsets)
    in
    let path = Filename.temp_file "castan" ".sets" in
    Cache.Contention.save c path;
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    Digest.to_hex (Digest.string text)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "saved sets at -j %d" jobs)
        "d839ac711dee62f9f515ee50933f0d6b" (saved jobs))
    [ 1; 2 ]

let consistent_sets_nonempty () =
  let offsets = Cache.Contention.standard_offsets geom ~count:160 in
  let c = Cache.Contention.consistent ~pages:2 ~reboots:1 ~geom ~offsets in
  Alcotest.(check bool) "classes found" true (c.Cache.Contention.n_classes >= 4);
  (* classified addresses resolve *)
  let cls, members = List.hd (Cache.Contention.classes c) in
  ignore cls;
  List.iter
    (fun off ->
      match Cache.Contention.class_of_vaddr c ((3 lsl 30) + off) with
      | Some _ -> ()
      | None -> Alcotest.fail "member lost its class")
    members

(* ---------------- the adversarial cache model ---------------- *)

let model_concrete_hits_and_misses () =
  let m = Cache.Model.baseline geom in
  let m, o1 = Cache.Model.access_concrete m 0x40000000 in
  Alcotest.(check bool) "cold miss" true o1.Cache.Model.miss;
  let _, o2 = Cache.Model.access_concrete m 0x40000000 in
  Alcotest.(check bool) "warm hit" false o2.Cache.Model.miss;
  Alcotest.(check int) "hit latency" geom.lat_l3 o2.Cache.Model.latency

let model_symbolic_constraint_valid () =
  let dst : Ir.Expr.sexpr = Leaf (Ir.Expr.Pkt { pkt = 0; field = Dst_ip }) in
  let addr : Ir.Expr.sexpr =
    Binop (Add, Const 0x40000000, Binop (Mul, dst, Const 8))
  in
  let m = Cache.Model.baseline geom in
  let _, o = Cache.Model.access_symbolic m ~pc:Solver.Pc.empty addr in
  match o.Cache.Model.added with
  | None -> Alcotest.fail "expected a concretization constraint"
  | Some c -> (
      match Solver.Solve.sat [ c ] with
      | Sat model ->
          Alcotest.(check int) "constraint pins the address" o.Cache.Model.addr
            (Solver.Solve.Model.eval model addr)
      | _ -> Alcotest.fail "concretization constraint unsolvable")

let model_concentrates_accesses () =
  (* with the contention model, symbolic accesses pile into few classes *)
  let offsets = Cache.Contention.standard_offsets geom ~count:160 in
  let sets = Cache.Contention.consistent ~pages:2 ~reboots:1 ~geom ~offsets in
  let model = ref (Cache.Model.contention geom sets) in
  let dst p : Ir.Expr.sexpr = Leaf (Ir.Expr.Pkt { pkt = p; field = Dst_ip }) in
  let classes_hit = Hashtbl.create 8 in
  for p = 0 to 11 do
    let addr : Ir.Expr.sexpr =
      Binop (Add, Const 0x40000000, Binop (Mul, dst p, Const 8))
    in
    let m', o = Cache.Model.access_symbolic !model ~pc:Solver.Pc.empty addr in
    model := m';
    (match Cache.Contention.class_of_vaddr sets o.Cache.Model.addr with
    | Some cls -> Hashtbl.replace classes_hit cls ()
    | None -> ())
  done;
  Alcotest.(check bool) "classified targets" true (Hashtbl.length classes_hit >= 1);
  Alcotest.(check bool) "concentrated" true (Hashtbl.length classes_hit <= 2)

let tests =
  [
    Alcotest.test_case "geometry" `Quick geometry_matches_paper;
    Alcotest.test_case "level hit" `Quick level_hit_after_insert;
    Alcotest.test_case "level LRU" `Quick level_lru_eviction;
    Alcotest.test_case "level invalidate" `Quick level_invalidate;
    qtest level_cycle_thrashes;
    qtest level_flush_equals_fresh;
    qtest level_matches_lru_model;
    Alcotest.test_case "hierarchy order" `Quick hierarchy_levels_ordered;
    Alcotest.test_case "latencies" `Quick hierarchy_latencies_monotone;
    Alcotest.test_case "inclusive back-invalidation" `Quick hierarchy_inclusive_backinval;
    Alcotest.test_case "invalidate line" `Quick hierarchy_invalidate_line;
    Alcotest.test_case "non-power-of-two geometry refused" `Quick
      hierarchy_refuses_non_pow2;
    qtest vmem_offset_preserved;
    Alcotest.test_case "vmem stable" `Quick vmem_stable_mapping;
    Alcotest.test_case "vmem distinct" `Quick vmem_distinct_pages;
    Alcotest.test_case "probing detects contention" `Quick probing_detects_contention;
    qtest probe_reused_equals_fresh;
    Alcotest.test_case "discovery vs ground truth" `Slow discovery_matches_ground_truth;
    Alcotest.test_case "consistent sets" `Slow consistent_sets_nonempty;
    Alcotest.test_case "contention save/load" `Slow contention_save_load;
    Alcotest.test_case "contention sets pinned at every -j" `Slow
      contention_pinned_across_jobs;
    Alcotest.test_case "model concrete" `Quick model_concrete_hits_and_misses;
    Alcotest.test_case "model constraint valid" `Quick model_symbolic_constraint_valid;
    Alcotest.test_case "model concentrates" `Slow model_concentrates_accesses;
  ]
