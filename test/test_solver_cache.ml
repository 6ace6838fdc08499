(* Tests for the feasibility fast path: independent-constraint slicing
   (Solver.Slice) behind Solve.feasible_sliced, and feasibility as the
   refutation step of Solve.sat.  The load-bearing properties are the
   first two: feasibility is exactly "sat does not say Unsat", and sliced
   and unsliced feasibility agree verdict-for-verdict on satisfiable path
   conditions (the regime the symbex engine guarantees: every constraint
   passed a feasibility check at insertion).  The last one checks that a
   real analysis slices at all. *)

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
    ~name:"feasible_sliced agrees with feasible on satisfiable sets"
    ~count:400 arb_query (fun input ->
      match query_of input with
      | None -> true
      | Some (q, pcs) ->
          Solver.Solve.feasible_sliced ~query:q pcs
          = Solver.Solve.feasible (q :: pcs))

let slicing_keeps_query_component =
  QCheck.Test.make
    ~name:"slicing never drops a constraint sharing a variable with the query"
    ~count:400
    QCheck.(
      pair Test_solver.arb_sexpr
        (list_of_size (QCheck.Gen.int_range 0 8) Test_solver.arb_sexpr))
    (fun (query, pcs) ->
      let slice, dropped = Solver.Slice.relevant ~query pcs in
      let shares_sym c =
        let qsyms = Solver.Slice.free_syms query in
        List.exists
          (fun s -> List.exists (fun s' -> compare_sym s s' = 0) qsyms)
          (Solver.Slice.free_syms c)
      in
      List.length slice + dropped = List.length pcs
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
    Solver.Slice.relevant ~query:(Cmp (Lt, dst, Const 10)) pcs
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
    Solver.Slice.relevant ~query:(Cmp (Eq, src, Const 4)) linked
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

let tests =
  [
    qtest feasible_is_refutation;
    qtest sliced_agrees_with_unsliced;
    qtest slicing_keeps_query_component;
    Alcotest.test_case "slice components" `Quick slice_components;
    Alcotest.test_case "a real analysis slices constraints away" `Quick
      analysis_slices;
  ]
