(* Tests for castan.symbex: potential-cost annotation (§3.4), searchers,
   and the exploration driver. *)

open Ir.Dsl

let geom = Cache.Geometry.xeon_e5_2667v2
let annotate ?m prog = Symbex.Cost.annotate ?m geom (Ir.Lower.program prog)

(* ---------------- potential cost ---------------- *)

let cost_straight_line () =
  let prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [] [ "a" <-- i 1; "b" <-- i 2; ret (v "a" +: v "b") ] ]
  in
  let a = annotate prog in
  (* three unit instructions, ret has one op: all cost >= 1 cycle each *)
  let full = Symbex.Cost.full_cost a "main" in
  Alcotest.(check bool) "positive" true (full >= 3);
  (* later pcs have smaller potential *)
  let p0 = Symbex.Cost.to_return a ~func:"main" ~pc:0 in
  let p2 = Symbex.Cost.to_return a ~func:"main" ~pc:2 in
  Alcotest.(check bool) "monotone along line" true (p0 > p2)

let cost_if_takes_max () =
  (* the Fig. 2 (left) situation: annotation takes the expensive branch *)
  let expensive = List.init 10 (fun k -> Printf.sprintf "x%d" k <-- i k) in
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [ "c" ]
          [ if_ (v "c") expensive [ "y" <-- i 0 ]; ret (i 0) ];
      ]
  in
  let a = annotate prog in
  let cheap_prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [ "c" ] [ if_ (v "c") [ "y" <-- i 1 ] [ "y" <-- i 0 ]; ret (i 0) ] ]
  in
  let b = annotate cheap_prog in
  Alcotest.(check bool) "max branch dominates" true
    (Symbex.Cost.full_cost a "main" > Symbex.Cost.full_cost b "main")

let loop_prog body_cost =
  program ~name:"t" ~entry:"main"
    [
      func "main" [ "n" ]
        [
          "k" <-- i 0;
          while_ (v "k" <: v "n")
            (List.init body_cost (fun j -> Printf.sprintf "b%d" j <-- i j)
            @ [ "k" <-- v "k" +: i 1 ]);
          ret (v "k");
        ];
    ]

let cost_loop_bounded_by_m () =
  (* M=2 accounts the body once; M=3 twice; never infinite *)
  let a2 = annotate ~m:2 (loop_prog 8) in
  let a3 = annotate ~m:3 (loop_prog 8) in
  let c2 = Symbex.Cost.full_cost a2 "main" in
  let c3 = Symbex.Cost.full_cost a3 "main" in
  Alcotest.(check bool) "finite" true (c2 > 0 && c2 < 1000);
  Alcotest.(check bool) "M=3 counts one more iteration" true (c3 > c2)

let cost_m1_hides_body () =
  (* with M=1 the loop body contributes nothing (the paper's point) *)
  let a_small = annotate ~m:1 (loop_prog 2) in
  let a_large = annotate ~m:1 (loop_prog 40) in
  Alcotest.(check int) "body size invisible at M=1"
    (Symbex.Cost.full_cost a_small "main")
    (Symbex.Cost.full_cost a_large "main")

let cost_call_chain () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "leaf" [] (List.init 20 (fun k -> Printf.sprintf "l%d" k <-- i k) @ [ ret (i 0) ]);
        func "main" [] [ call "x" "leaf" []; ret (v "x") ];
      ]
  in
  let a = annotate prog in
  Alcotest.(check bool) "callee cost included" true
    (Symbex.Cost.full_cost a "main" > Symbex.Cost.full_cost a "leaf")

let cost_memory_assumes_l1 () =
  let regions = [ Ir.Memory.array_spec ~name:"r" ~elem_width:8 ~count:8 () ] in
  let base = Nf.Nf_def.region_base regions "r" in
  let prog =
    program ~name:"t" ~entry:"main" ~regions
      [ func "main" [] [ load8 "x" (i base); ret (v "x") ] ]
  in
  let a = annotate prog in
  let full = Symbex.Cost.full_cost a "main" in
  (* load cost includes lat_l1 but not lat_dram *)
  Alcotest.(check bool) "l1 assumption" true
    (full >= geom.lat_l1 && full < geom.lat_dram)

(* ---------------- searchers ---------------- *)

let dummy_states prog n =
  let cfg = Ir.Lower.program prog in
  let mem = Ir.Memory.create ~regions:[] ~heap_bytes:4096
      ~inject:(fun v -> Ir.Expr.Const v) in
  List.init n (fun _ ->
      Symbex.State.initial cfg ~cache:(Cache.Model.baseline geom) ~n_packets:1 ~mem)

let searcher_fifo_lifo () =
  let prog =
    program ~name:"t" ~entry:"process" [ func "process" [] [ ret (i 0) ] ]
  in
  let annot = annotate prog in
  let states = dummy_states prog 3 in
  let s_bfs = Symbex.Searcher.create Bfs ~annot in
  List.iter (Symbex.Searcher.add s_bfs) states;
  let first_ids = List.map (fun (s : Symbex.State.t) -> s.id) states in
  let popped =
    List.init 3 (fun _ ->
        match Symbex.Searcher.pop s_bfs with
        | Some s -> s.Symbex.State.id
        | None -> -1)
  in
  Alcotest.(check (list int)) "bfs is fifo" first_ids popped;
  let s_dfs = Symbex.Searcher.create Dfs ~annot in
  List.iter (Symbex.Searcher.add s_dfs) states;
  let popped =
    List.init 3 (fun _ ->
        match Symbex.Searcher.pop s_dfs with
        | Some s -> s.Symbex.State.id
        | None -> -1)
  in
  Alcotest.(check (list int)) "dfs is lifo" (List.rev first_ids) popped

let searcher_drain_counts () =
  let prog =
    program ~name:"t" ~entry:"process" [ func "process" [] [ ret (i 0) ] ]
  in
  let annot = annotate prog in
  let s = Symbex.Searcher.create Castan ~annot in
  List.iter (Symbex.Searcher.add s) (dummy_states prog 5);
  Alcotest.(check int) "size" 5 (Symbex.Searcher.size s);
  Alcotest.(check int) "drain" 5 (List.length (Symbex.Searcher.drain s));
  Alcotest.(check int) "empty" 0 (Symbex.Searcher.size s)

(* ---------------- driver ---------------- *)

let toy_two_paths =
  (* true branch is much more expensive; castan search must find it *)
  program ~name:"t" ~entry:"process"
    [
      func "process" [ "dst_ip" ]
        [
          if_ (v "dst_ip" >: i 500)
            (List.init 30 (fun k -> Printf.sprintf "e%d" k <-- i k) @ [ ret (i 1) ])
            [ ret (i 0) ];
        ];
    ]

(* The driver settings of the toy-program tests (test_obs and
   test_resilience use them too). *)
let driver_config ?(strategy = Symbex.Searcher.Castan) ?(instr_budget = 200_000)
    ?(max_completed = 32) n_packets =
  {
    Symbex.Driver.n_packets;
    strategy;
    geom;
    m = 2;
    instr_budget;
    time_budget = 300.0;
    max_completed;
  }

let run_driver ?(n_packets = 2) ?strategy prog =
  let cfg = Ir.Lower.program prog in
  let mem = Ir.Memory.create ~regions:cfg.Ir.Cfg.regions
      ~heap_bytes:cfg.Ir.Cfg.heap_bytes ~inject:(fun v -> Ir.Expr.Const v) in
  Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom)
    (driver_config ?strategy n_packets)

let driver_finds_expensive_path () =
  let r = run_driver toy_two_paths in
  match r.ranked with
  | [] -> Alcotest.fail "no best state"
  | s :: _ -> (
      Alcotest.(check bool) "completed" true s.Symbex.State.finished;
      (* both packets must have taken the expensive branch *)
      match Solver.Solve.sat (Solver.Pc.to_list s.Symbex.State.pcs) with
      | Sat m ->
          for p = 0 to 1 do
            let dst = Solver.Solve.Model.get m (Ir.Expr.Pkt { pkt = p; field = Dst_ip }) in
            Alcotest.(check bool) "expensive branch input" true (dst > 500)
          done
      | _ -> Alcotest.fail "best path unsolvable")

let driver_explores_all_paths () =
  let r = run_driver ~n_packets:1 toy_two_paths in
  (* one packet, one branch: both outcomes completed *)
  Alcotest.(check int) "two completed paths" 2 (List.length r.completed)

let driver_metrics_match_interp () =
  (* on the path the driver chose, the concrete interpreter must retire the
     same weighted instruction count the symbolic engine predicted *)
  let r = run_driver ~n_packets:1 toy_two_paths in
  match r.ranked with
  | [] -> Alcotest.fail "no best"
  | s :: _ -> (
      match Solver.Solve.sat (Solver.Pc.to_list s.Symbex.State.pcs) with
      | Sat m ->
          let dst = Solver.Solve.Model.get m (Ir.Expr.Pkt { pkt = 0; field = Dst_ip }) in
          let cfg = Ir.Lower.program toy_two_paths in
          let mem = ref (Ir.Memory.create ~regions:[] ~heap_bytes:4096 ~inject:Fun.id) in
          let o = Ir.Interp.call cfg ~mem ~hooks:Ir.Interp.no_hooks "process" [ dst ] in
          let predicted = List.hd (Symbex.State.all_metrics s) in
          Alcotest.(check int) "instructions agree" o.Ir.Interp.instrs
            predicted.Symbex.State.instrs
      | _ -> Alcotest.fail "unsolvable")

(* A loop bounded by the symbolic 8-bit protocol field: at most 255
   iterations, so exploring it finishes.  (Bounded by a 16-bit field, one
   greedy 20k-instruction slice takes ~25 s of feasibility checks.) *)
let symbolic_loop =
  program ~name:"t" ~entry:"process"
    [
      func "process" [ "proto" ]
        [
          "k" <-- i 0;
          while_ (v "k" <: v "proto") [ "k" <-- v "k" +: i 1 ];
          ret (v "k");
        ];
    ]

let driver_loop_greedy () =
  (* symbolic loop bound: the engine should run it deep, not exit early *)
  let prog = symbolic_loop in
  let r = run_driver ~n_packets:1 prog in
  match r.ranked with
  | [] -> Alcotest.fail "no best"
  | s :: _ ->
      let m = List.hd (Symbex.State.all_metrics s) in
      (* greedy loop exploration yields far more instructions than exit-now *)
      Alcotest.(check bool) "deep loop" true (m.Symbex.State.instrs > 100)

let driver_respects_instr_budget () =
  let cfg = Ir.Lower.program symbolic_loop in
  let mem = Ir.Memory.create ~regions:[] ~heap_bytes:4096
      ~inject:(fun v -> Ir.Expr.Const v) in
  (* 4 packets give 256^4 paths: only the budget can stop this *)
  let config = driver_config ~instr_budget:5_000 ~max_completed:max_int 4 in
  let r = Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom) config in
  Alcotest.(check bool) "stopped near budget" true
    (r.stats.executed_instrs < 40_000);
  Alcotest.(check bool) "cut with states pending" true r.stats.degraded

let driver_fork_on_small_domain () =
  (* a 2-candidate pointer (trie-child shape) must fork, covering both *)
  let regions = [ Ir.Memory.array_spec ~name:"r" ~elem_width:8 ~count:2
                    ~init:(fun i -> 100 + i) () ] in
  let base = Nf.Nf_def.region_base regions "r" in
  let prog =
    program ~name:"t" ~entry:"process" ~regions
      [
        func "process" [ "dst_ip" ]
          [
            "bit" <-- (v "dst_ip" &: i 1);
            load8 "x" (i base +: (v "bit" *: i 8));
            ret (v "x");
          ];
      ]
  in
  let r = run_driver ~n_packets:1 prog in
  Alcotest.(check int) "two pointer targets explored" 2 (List.length r.completed)

let tests =
  [
    Alcotest.test_case "cost straight line" `Quick cost_straight_line;
    Alcotest.test_case "cost if max" `Quick cost_if_takes_max;
    Alcotest.test_case "cost loop bound M" `Quick cost_loop_bounded_by_m;
    Alcotest.test_case "cost M=1 hides body" `Quick cost_m1_hides_body;
    Alcotest.test_case "cost call chain" `Quick cost_call_chain;
    Alcotest.test_case "cost L1 assumption" `Quick cost_memory_assumes_l1;
    Alcotest.test_case "searcher bfs/dfs" `Quick searcher_fifo_lifo;
    Alcotest.test_case "searcher drain" `Quick searcher_drain_counts;
    Alcotest.test_case "driver finds expensive path" `Quick driver_finds_expensive_path;
    Alcotest.test_case "driver explores all paths" `Quick driver_explores_all_paths;
    Alcotest.test_case "predicted = interpreted" `Quick driver_metrics_match_interp;
    Alcotest.test_case "driver loop greedy" `Quick driver_loop_greedy;
    Alcotest.test_case "driver instr budget" `Quick driver_respects_instr_budget;
    Alcotest.test_case "fork on small pointer domain" `Quick driver_fork_on_small_domain;
  ]
