(* Tests for the feasibility fast path: path conditions kept by component
   (Solver.Pc) and feasibility as the refutation step of Solve.sat.  The
   load-bearing properties are the first two: feasibility is exactly "sat
   does not say Unsat", and sliced and unsliced feasibility agree
   verdict-for-verdict on satisfiable path conditions (the regime the
   symbex engine guarantees: every constraint passed a feasibility check at
   insertion).  Then: what a slice keeps, that a real analysis slices at
   all, and two pins of the solver's and the analysis' outputs. *)

open Ir.Expr

let qtest = QCheck_alcotest.to_alcotest

(* Satisfiable-by-construction constraint sets, as in test_solver's
   never_unsat_on_satisfiable: pin each random expression to its value
   under a seed-derived assignment. *)
let satisfiable_set seed es =
  let leaf = Test_solver.assignment_of seed in
  List.filter_map
    (fun e ->
      match eval ~leaf e with
      | exception Division_by_zero -> None
      | v -> Some (Cmp (Eq, e, Const v) : sexpr))
    es

(* A random query and path condition: satisfiable by construction, or with
   the query turned into a propagation-provable contradiction of a pcs
   constraint (e = v while pcs pins e = v+1). *)
let arb_query =
  QCheck.(
    triple small_int bool
      (list_of_size (QCheck.Gen.int_range 2 7) Test_solver.arb_sexpr))

let query_of (seed, contradict, es) =
  match satisfiable_set seed es with
  | [] -> None
  | q :: pcs -> (
      match pcs with
      | Cmp (Eq, e, Const v) :: _ when contradict ->
          Some ((Cmp (Eq, e, Const (v + 1)) : sexpr), pcs)
      | _ -> Some (q, pcs))

let feasible_is_refutation =
  QCheck.Test.make ~name:"feasible is exactly sat's refutation" ~count:400
    arb_query (fun input ->
      match query_of input with
      | None -> true
      | Some (q, pcs) ->
          let cs = q :: pcs in
          Solver.Solve.feasible cs
          = (Solver.Solve.sat ~attempts:200 cs <> Unsat))

let sliced_agrees_with_unsliced =
  QCheck.Test.make
    ~name:"Pc.feasible agrees with feasible on satisfiable sets"
    ~count:400 arb_query (fun input ->
      match query_of input with
      | None -> true
      | Some (q, pcs) ->
          Solver.Pc.feasible (Solver.Pc.of_list pcs) ~query:q
          = Solver.Solve.feasible (q :: pcs))

let slicing_keeps_query_component =
  QCheck.Test.make
    ~name:"slicing never drops a constraint sharing a variable with the query"
    ~count:400
    QCheck.(
      pair Test_solver.arb_sexpr
        (list_of_size (QCheck.Gen.int_range 0 8) Test_solver.arb_sexpr))
    (fun (query, pcs) ->
      let pc = Solver.Pc.of_list pcs in
      let slice, dropped = Solver.Pc.slice pc ~query in
      let shares_sym c =
        let qsyms = Solver.Solve.syms_of [ Solver.Simplify.expr query ] in
        List.exists
          (fun s -> List.exists (fun s' -> compare_sym s s' = 0) qsyms)
          (Solver.Solve.syms_of [ c ])
      in
      List.length slice + dropped = Solver.Pc.length pc
      && List.for_all
           (fun c ->
             (not (shares_sym c))
             || List.exists (fun c' -> equal_sexpr c c') slice)
           pcs)

let slice_components () =
  let dst = Test_solver.pkt0 Dst_ip
  and src = Test_solver.pkt0 Src_ip
  and sport = Test_solver.pkt0 Src_port in
  let pcs : sexpr list =
    [
      Cmp (Eq, src, Const 1);
      Cmp (Eq, sport, Const 2);
      Cmp (Eq, dst, Const 3);
      Cmp (Eq, Const 1, Const 1) (* ground: must never be sliced away *);
    ]
  in
  let slice, dropped =
    Solver.Pc.slice (Solver.Pc.of_list pcs) ~query:(Cmp (Lt, dst, Const 10))
  in
  Alcotest.(check int) "dropped the two unrelated constraints" 2 dropped;
  Alcotest.(check bool) "kept the dst constraint" true
    (List.exists (equal_sexpr (Cmp (Eq, dst, Const 3) : sexpr)) slice);
  Alcotest.(check bool) "kept the ground constraint" true
    (List.exists (equal_sexpr (Cmp (Eq, Const 1, Const 1) : sexpr)) slice);
  (* Transitive components: src links to sport through a shared constraint,
     so a src query must keep the sport constraint too. *)
  let linked : sexpr list =
    [ Cmp (Lt, src, sport); Cmp (Eq, sport, Const 9); Cmp (Eq, dst, Const 3) ]
  in
  let slice, dropped =
    Solver.Pc.slice (Solver.Pc.of_list linked) ~query:(Cmp (Eq, src, Const 4))
  in
  Alcotest.(check int) "only dst dropped" 1 dropped;
  Alcotest.(check int) "src+sport kept" 2 (List.length slice)

(* Slicing pays only if it removes something on real path conditions: an
   instruction-bound analysis must send feasibility queries through the
   slicer and have it drop constraints from some of them. *)
let analysis_slices () =
  let nf = Nf.Registry.find "lpm-btrie" in
  let config =
    { (Castan.Analyze.default_config ()) with
      n_packets = Some 3; instr_budget = 20_000 }
  in
  let dropped = Obs.Metrics.counter "solver.slice.constraints_dropped" in
  Obs.Metrics.reset ();
  Obs.Metrics.set_active true;
  let q0 = (Solver.Qcache.stats ()).queries in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_active false;
      Obs.Metrics.reset ())
    (fun () ->
      ignore (Castan.Analyze.run ~config nf : Castan.Analyze.outcome);
      Alcotest.(check bool) "feasibility queries were sliced" true
        ((Solver.Qcache.stats ()).queries > q0);
      Alcotest.(check bool) "slicing dropped constraints" true
        (Obs.Metrics.counter_value dropped > 0))

(* Output pins.  The digests were recorded before path conditions were
   kept by component, from the list-based solver and symbex; they hold as
   long as every feasibility verdict, domain, model and analysis outcome
   stays the same. *)

(* A generated constraint list as a path condition holds it: newest
   first, without duplicates or trivially-true constants. *)
let path_condition cs =
  List.fold_left
    (fun pcs c ->
      match c with
      | Const k when k <> 0 -> pcs
      | _ -> if List.exists (equal_sexpr c) pcs then pcs else c :: pcs)
    [] cs

let render_domain (d : Solver.Domain.t) =
  Printf.sprintf "[%d,%d,%d]" d.lo d.hi d.step

let render_verdict = function
  | Solver.Solve.Sat m -> Format.asprintf "S{%a}" Solver.Solve.Model.pp m
  | Unsat -> "U"
  | Unknown -> "?"

(* Path conditions shaped like a tree NF's: orderings between packet keys,
   bounds, masked and modular equalities, and bounds on or-packed keys, in
   random order, so that parked orderings meet refinements that arrive
   after them. *)
let gen_ordering_constraint : sexpr QCheck.Gen.t =
  let open QCheck.Gen in
  let sym =
    map2
      (fun pkt field : sexpr -> Leaf (Pkt { pkt; field }))
      (int_range 0 3)
      (oneofl [ Src_port; Dst_port; Proto ])
  in
  let key =
    oneof
      [
        sym;
        map2 (fun s k : sexpr -> Binop (Add, s, Const k)) sym (int_range 1 9);
        map2 (fun a b : sexpr -> Binop (Or, Binop (Shl, a, Const 16), b)) sym sym;
      ]
  in
  let bound = int_range 0 70000 in
  oneof
    [
      map3 (fun op a b : sexpr -> Cmp (op, a, b)) (oneofl [ Lt; Le ]) key key;
      map3 (fun op a c : sexpr -> Cmp (op, a, Const c)) (oneofl [ Lt; Le ]) key bound;
      map3 (fun op c a : sexpr -> Cmp (op, Const c, a)) (oneofl [ Lt; Le ]) bound key;
      map3 (fun a b c : sexpr -> Cmp (Le, Binop (Or, a, b), Const c)) key key bound;
      map3 (fun a b c : sexpr -> Cmp (Le, Const c, Binop (Or, a, b))) key key bound;
      map3
        (fun a m v : sexpr -> Cmp (Eq, Binop (And, a, Const m), Const (v land m)))
        key
        (oneofl [ 0xff; 0xf0; 0xf00; 3 ])
        bound;
      map3
        (fun a m r : sexpr -> Cmp (Eq, Binop (Rem, a, Const m), Const (r mod m)))
        key (int_range 2 9) bound;
      map2 (fun a b : sexpr -> Cmp (Ne, a, b)) key key;
    ]

(* Runs 200 generated path conditions, each with a generated query, through
   [feasible], [Pc.feasible], [domain_of] (of the query and of [probe]) and
   [sat], and digests the answers. *)
let outputs_digest ~seed ~size ~gen ~shape ~probe =
  let rand = Random.State.make [| seed |] in
  let buf = Buffer.create 65536 in
  for i = 0 to 199 do
    let es = QCheck.Gen.(generate1 ~rand (list_size size gen)) in
    let q = QCheck.Gen.generate1 ~rand gen in
    let pcs = path_condition (shape i es) in
    let pc = Solver.Pc.of_list pcs in
    Printf.bprintf buf "%d %b %b %s %s %s\n" i
      (Solver.Solve.feasible (q :: pcs))
      (Solver.Pc.feasible pc ~query:q)
      (render_domain (Solver.Pc.domain_of pc q))
      (render_domain (Solver.Pc.domain_of pc probe))
      (render_verdict (Solver.Solve.sat pcs))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let solver_outputs_pinned () =
  Alcotest.(check string)
    "random expressions, half of them satisfiable by construction"
    "44aed6fe8394dc4ed4922a89bec3e416"
    (outputs_digest ~seed:0x5eed ~size:(QCheck.Gen.int_range 1 6)
       ~gen:Test_solver.gen_sexpr
       ~shape:(fun i es -> if i mod 2 = 0 then es else satisfiable_set i es)
       ~probe:Test_solver.dst);
  Alcotest.(check string) "orderings, bounds and masks" "d9c285bd282916b53a4547cbcf16db02"
    (outputs_digest ~seed:0xc4a1 ~size:(QCheck.Gen.int_range 2 10)
       ~gen:gen_ordering_constraint
       ~shape:(fun _ es -> es)
       ~probe:Test_solver.sport)

(* Workload fingerprint, predicted cost, explored states, forks and executed
   instructions of three small instruction-budgeted analyses. *)
let analysis_outcomes_pinned () =
  List.iter
    (fun (name, expected) ->
      let config =
        { (Castan.Analyze.default_config ()) with instr_budget = 3_000 }
      in
      let o = Castan.Analyze.run ~config (Nf.Registry.find name) in
      Alcotest.(check string) name expected
        (Printf.sprintf "%s %d %d %d %d"
           (Digest.to_hex (Digest.string (Castan.Ktest.ktest_string o)))
           o.predicted_cost o.stats.explored o.stats.forks
           o.stats.executed_instrs))
    [
      ("nat-unbalanced-tree", "3d855a1ee108dad207fdb6b076aecae3 45515 332 318 3006");
      ("nat-red-black-tree", "542a48d773cf391b11cf813ac3ae4df5 58411 180 167 3132");
      ("lb-hash-table", "f4c3c6dc42b1c3e8521f53d2e6b9626a 54701 513 484 3003");
    ]

let tests =
  [
    qtest feasible_is_refutation;
    qtest sliced_agrees_with_unsliced;
    qtest slicing_keeps_query_component;
    Alcotest.test_case "slice components" `Quick slice_components;
    Alcotest.test_case "a real analysis slices constraints away" `Quick
      analysis_slices;
    Alcotest.test_case "solver outputs pinned" `Quick solver_outputs_pinned;
    Alcotest.test_case "analysis outcomes pinned" `Quick
      analysis_outcomes_pinned;
  ]
