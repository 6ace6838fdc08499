(* Tests for castan.solver: simplifier semantics, domains, satisfiability. *)

open Ir.Expr

let qtest = QCheck_alcotest.to_alcotest

let pkt0 f : sexpr = Leaf (Pkt { pkt = 0; field = f })
let pkt1 f : sexpr = Leaf (Pkt { pkt = 1; field = f })
let dst = pkt0 Dst_ip
let src = pkt0 Src_ip
let sport = pkt0 Src_port

(* ---------------- simplifier ---------------- *)

(* Random symbolic expressions over a few packet fields; division excluded
   (zero divisors would make semantic comparison awkward). *)
let gen_sexpr : sexpr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun c -> Const c) (int_range 0 70000);
               oneofl [ dst; src; sport; pkt0 Proto ];
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2
                 (fun op (a, b) -> Binop (op, a, b))
                 (oneofl [ Add; Sub; Mul; And; Or; Xor ])
                 (pair sub sub);
               map2
                 (fun (op, k) a -> Binop (op, a, Const k))
                 (pair (oneofl [ Shl; Lshr ]) (int_range 0 8))
                 sub;
               map2
                 (fun op (a, b) -> Cmp (op, a, b))
                 (oneofl [ Eq; Ne; Lt; Le ])
                 (pair sub sub);
               map (fun (c, (a, b)) -> Ite (c, a, b)) (pair sub (pair sub sub));
             ])

let arb_sexpr = QCheck.make ~print:(to_string pp_sym) gen_sexpr

(* A deterministic per-symbol assignment derived from the seed. *)
let assignment_of seed s =
  let h = Hashtbl.hash s in
  let w = sym_width s in
  Util.Rng.int (Util.Rng.create ((seed * 31) + h)) (1 lsl min w 30)

let simplify_preserves_semantics =
  QCheck.Test.make ~name:"Simplify.expr preserves semantics" ~count:800
    QCheck.(pair arb_sexpr small_int)
    (fun (e, seed) ->
      let leaf = assignment_of seed in
      let v1 = try Some (eval ~leaf e) with Division_by_zero -> None in
      let v2 =
        try Some (eval ~leaf (Solver.Simplify.expr e))
        with Division_by_zero -> None
      in
      match (v1, v2) with Some a, Some b -> a = b | _ -> true)

let negate_is_logical_not =
  QCheck.Test.make ~name:"Simplify.negate is logical not" ~count:500
    QCheck.(pair arb_sexpr small_int)
    (fun (e, seed) ->
      let leaf = assignment_of seed in
      match eval ~leaf e with
      | exception Division_by_zero -> true
      | v ->
          let n = eval ~leaf (Solver.Simplify.negate e) in
          (v <> 0) = (n = 0) && (n = 0 || n = 1))

(* Expressions that reach the simplifier's boolean rules: small constants
   (0 and 1 above all), negations, nested comparisons and boolean
   connectives over comparisons. *)
let gen_simplifiable : sexpr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun c -> Const c) (oneofl [ 0; 0; 1; 1; 2; 3; 255; 65535 ]);
               oneofl [ dst; src; sport; pkt0 Proto ];
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2
                 (fun op (a, b) -> Binop (op, a, b))
                 (oneofl [ Add; Sub; Mul; And; Or; Xor ])
                 (pair sub sub);
               map2
                 (fun (op, k) a -> Binop (op, a, Const k))
                 (pair (oneofl [ Shl; Lshr; And; Add ]) (int_range 0 8))
                 sub;
               map2 (fun op a -> Unop (op, a)) (oneofl [ Neg; Bnot ]) sub;
               map2
                 (fun op (a, b) -> Cmp (op, a, b))
                 (oneofl [ Eq; Ne; Lt; Le ])
                 (pair sub sub);
               map2
                 (fun op (a, k) -> Cmp (op, a, Const k))
                 (oneofl [ Eq; Ne ])
                 (pair sub (oneofl [ 0; 1 ]));
               map (fun (c, (a, b)) -> Ite (c, a, b)) (pair sub (pair sub sub));
             ])

let rec subterms (e : sexpr) acc =
  match e with
  | Const _ | Leaf _ -> e :: acc
  | Unop (_, a) -> subterms a (e :: acc)
  | Binop (_, a, b) | Cmp (_, a, b) -> subterms a (subterms b (e :: acc))
  | Ite (c, a, b) -> subterms c (subterms a (subterms b (e :: acc)))

let fixpoint_throughout e =
  List.for_all
    (fun t -> equal_sexpr (Solver.Simplify.expr t) t)
    (subterms e [])

(* The solver simplifies each path constraint once and re-asserts a parked
   residual only when something it mentions changed: exact only because
   what the simplifier returns, and every part of it, simplifies to
   itself. *)
let simplify_is_idempotent =
  QCheck.Test.make
    ~name:"Simplify.expr is idempotent, every subterm a fixpoint" ~count:2000
    (QCheck.make ~print:(to_string pp_sym) gen_simplifiable)
    (fun e -> fixpoint_throughout (Solver.Simplify.expr e))

let negate_is_simplified =
  QCheck.Test.make ~name:"Simplify.negate returns a fixpoint" ~count:2000
    (QCheck.make ~print:(to_string pp_sym) gen_simplifiable)
    (fun e -> fixpoint_throughout (Solver.Simplify.negate e))

let simplify_constant_folds () =
  Alcotest.(check bool) "folds" true
    (Solver.Simplify.expr (Binop (Add, Const 2, Const 3)) = Const 5);
  Alcotest.(check bool) "neutral" true
    (Solver.Simplify.expr (Binop (Add, dst, Const 0)) = dst);
  Alcotest.(check bool) "absorbing" true
    (Solver.Simplify.expr (Binop (Mul, dst, Const 0)) = Const 0)

(* ---------------- domains ---------------- *)

let domain_ops_sound =
  QCheck.Test.make ~name:"Domain.binop over-approximates" ~count:1000
    QCheck.(
      triple
        (oneofl Ir.Expr.[ Add; Sub; Mul; And; Or; Xor; Lshr; Rem ])
        (pair (int_range 0 1000) (int_range 0 1000))
        (pair (int_range 0 100) (int_range 1 64)))
    (fun (op, (a, b), (lo_off, step)) ->
      (* membership of concrete op result when inputs drawn from domains *)
      let da = Solver.Domain.make ~lo:(a - lo_off) ~hi:(a + 100) ~step:1 in
      let db = Solver.Domain.make ~lo:b ~hi:(b + (step * 5)) ~step in
      QCheck.assume (Solver.Domain.mem da a && Solver.Domain.mem db b);
      match Ir.Expr.apply_binop op a b with
      | exception Division_by_zero -> true
      | r -> Solver.Domain.mem (Solver.Domain.binop op da db) r)

let domain_meet_exact () =
  let a = Solver.Domain.make ~lo:0 ~hi:100000 ~step:4096 in
  let b = Solver.Domain.make ~lo:4095 ~hi:100000 ~step:4096 in
  (match Solver.Domain.meet a b with
  | None -> ()
  | Some _ -> Alcotest.fail "disjoint progressions should not meet");
  let c = Solver.Domain.make ~lo:8192 ~hi:100000 ~step:4096 in
  match Solver.Domain.meet a c with
  | Some d ->
      Alcotest.(check bool) "member" true (Solver.Domain.mem d 8192);
      Alcotest.(check bool) "not member" false (Solver.Domain.mem d 4096)
  | None -> Alcotest.fail "overlapping progressions must meet"

let domain_meet_crt () =
  (* x ≡ 1 mod 3 and x ≡ 2 mod 5 -> x ≡ 7 mod 15 *)
  let a = Solver.Domain.make ~lo:1 ~hi:1000 ~step:3 in
  let b = Solver.Domain.make ~lo:2 ~hi:1000 ~step:5 in
  match Solver.Domain.meet a b with
  | Some d ->
      Alcotest.(check int) "lo" 7 (d : Solver.Domain.t).lo;
      Alcotest.(check int) "step" 15 (d : Solver.Domain.t).step
  | None -> Alcotest.fail "CRT meet must exist"

let domain_sample_member =
  QCheck.Test.make ~name:"Domain.sample yields members" ~count:300
    QCheck.(triple (int_range 0 1000) (int_range 1 100) (int_range 1 50))
    (fun (lo, extent, step) ->
      let d = Solver.Domain.make ~lo ~hi:(lo + extent * step) ~step in
      let rng = Util.Rng.create (lo + extent) in
      Solver.Domain.mem d (Solver.Domain.sample d rng))

(* ---------------- sat: inversion & propagation ---------------- *)

let solves cs =
  match Solver.Solve.sat cs with
  | Sat m ->
      Alcotest.(check bool) "model verifies" true (Solver.Solve.check m cs);
      m
  | Unsat -> Alcotest.fail "unexpectedly UNSAT"
  | Unknown -> Alcotest.fail "unexpectedly UNKNOWN"

let must_be_unsat cs =
  match Solver.Solve.sat cs with
  | Unsat -> ()
  | Sat _ -> Alcotest.fail "expected UNSAT, got model"
  | Unknown -> Alcotest.fail "expected UNSAT, got UNKNOWN"

let sat_shift_mul_chain () =
  let addr = Binop (Add, Const 0x1000, Binop (Mul, Binop (Lshr, dst, Const 5), Const 8)) in
  let m = solves [ Cmp (Eq, addr, Const (0x1000 + (777 * 8))) ] in
  Alcotest.(check int) "inverted" 777
    (Solver.Solve.Model.get m (Pkt { pkt = 0; field = Dst_ip }) lsr 5)

let sat_bit_tests () =
  let bit k b = Cmp (Eq, Binop (And, Binop (Lshr, dst, Const k), Const 1), Const b) in
  let m = solves [ bit 31 1; bit 13 0; bit 2 1 ] in
  let v = Solver.Solve.Model.get m (Pkt { pkt = 0; field = Dst_ip }) in
  Alcotest.(check int) "bit31" 1 ((v lsr 31) land 1);
  Alcotest.(check int) "bit13" 0 ((v lsr 13) land 1);
  Alcotest.(check int) "bit2" 1 ((v lsr 2) land 1)

let sat_congruence () =
  let m = solves [ Cmp (Eq, Binop (Rem, dst, Const 4096), Const 123);
                   Cmp (Lt, Const 100000, dst) ] in
  let v = Solver.Solve.Model.get m (Pkt { pkt = 0; field = Dst_ip }) in
  Alcotest.(check int) "mod" 123 (v mod 4096);
  Alcotest.(check bool) "bound" true (v > 100000)

let sat_packing () =
  let key = Binop (Or, Binop (Shl, src, Const 16), sport) in
  let m = solves [ Cmp (Eq, key, Const ((0xDEAD lsl 16) lor 1234)) ] in
  Alcotest.(check int) "src" 0xDEAD (Solver.Solve.Model.get m (Pkt { pkt = 0; field = Src_ip }));
  Alcotest.(check int) "port" 1234 (Solver.Solve.Model.get m (Pkt { pkt = 0; field = Src_port }))

let sat_xor_chain () =
  (* (src ^ dst) = K with dst pinned: needs the substitution rounds *)
  let m =
    solves
      [
        Cmp (Eq, Binop (Xor, src, dst), Const 0xABCD);
        Cmp (Eq, dst, Const 0x1111);
      ]
  in
  Alcotest.(check int) "xor resolved" (0xABCD lxor 0x1111)
    (Solver.Solve.Model.get m (Pkt { pkt = 0; field = Src_ip }))

let sat_ordering_chain () =
  let key p : sexpr =
    Binop (Or, Binop (Shl, Leaf (Pkt { pkt = p; field = Src_ip }), Const 16),
           Leaf (Pkt { pkt = p; field = Src_port }))
  in
  let cs = List.concat (List.init 7 (fun p ->
      if p = 0 then [] else [ Cmp (Lt, key p, key (p - 1)) ])) in
  let m = solves cs in
  let vals = List.init 8 (fun p -> Solver.Solve.Model.eval m (key p)) in
  let rec strictly_desc = function
    | a :: (b :: _ as rest) -> a > b && strictly_desc rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (strictly_desc vals)

let sat_disjunction () =
  let proto = pkt0 Proto in
  let m = solves [ Binop (Or, Cmp (Eq, proto, Const 6), Cmp (Eq, proto, Const 17)) ] in
  let v = Solver.Solve.Model.get m (Pkt { pkt = 0; field = Proto }) in
  Alcotest.(check bool) "tcp or udp" true (v = 6 || v = 17)

let unsat_conflicting_eq () =
  must_be_unsat [ Cmp (Eq, sport, Const 5); Cmp (Eq, sport, Const 6) ]

let unsat_width_overflow () =
  (* an 8-bit field cannot equal 300 *)
  must_be_unsat [ Cmp (Eq, pkt0 Proto, Const 300) ]

let unsat_interval () =
  must_be_unsat [ Cmp (Lt, sport, Const 10); Cmp (Lt, Const 20, sport) ]

(* The ordering is asserted first, parked on full domains, and refuted
   only when a propagation round re-checks it against the bounds that
   arrived after it. *)
let unsat_parked_ordering () =
  must_be_unsat
    [
      Cmp (Lt, sport, pkt0 Dst_port);
      Cmp (Le, Const 20, sport);
      Cmp (Le, pkt0 Dst_port, Const 10);
    ]

let unsat_congruence_conflict () =
  must_be_unsat
    [
      Cmp (Eq, Binop (Rem, dst, Const 4096), Const 1);
      Cmp (Eq, Binop (Rem, dst, Const 4096), Const 2);
    ]

let unsat_order_cycle () =
  let key p : sexpr =
    Binop (Or, Binop (Shl, Leaf (Pkt { pkt = p; field = Src_ip }), Const 16),
           Leaf (Pkt { pkt = p; field = Src_port }))
  in
  must_be_unsat
    [ Cmp (Lt, key 0, key 1); Cmp (Le, key 1, key 2); Cmp (Lt, key 2, key 0) ]

let unsat_direct_complement () =
  must_be_unsat [ Cmp (Lt, src, dst); Cmp (Le, dst, src) ]

let sat_cross_packet_ne () =
  let cs =
    List.concat
      (List.init 5 (fun i ->
           List.init i (fun j ->
               [ Cmp (Ne, Leaf (Pkt { pkt = i; field = Src_port }),
                      Leaf (Pkt { pkt = j; field = Src_port })) ])
           |> List.concat))
  in
  let m = solves cs in
  let ports = List.init 5 (fun p -> Solver.Solve.Model.get m (Pkt { pkt = p; field = Src_port })) in
  Alcotest.(check int) "all distinct" 5 (List.length (List.sort_uniq compare ports))

(* An [or] with a possibly negative operand bounds neither side by the
   other's mask: src_port - dst_port is negative at the second witness. *)
let sat_or_negative_operand () =
  let diff = Binop (Sub, sport, pkt0 Dst_port) in
  List.iter
    (fun (name, c, (sp, dp)) ->
      let leaf = function
        | Pkt { field = Src_port; _ } -> sp
        | Pkt { field = Dst_port; _ } -> dp
        | _ -> 0
      in
      Alcotest.(check bool) (name ^ ": witness satisfies it") true
        (eval ~leaf c <> 0);
      Alcotest.(check bool) (name ^ ": feasible") true
        (Solver.Solve.feasible [ c ]);
      match Solver.Solve.sat [ c ] with
      | Sat m ->
          Alcotest.(check bool) (name ^ ": model satisfies it") true
            (Solver.Solve.check m [ c ])
      | Unsat | Unknown -> Alcotest.fail (name ^ ": not Sat"))
    [
      ("43702 < 4900 | diff", Cmp (Lt, Const 43702, Binop (Or, Const 4900, diff)),
       (50000, 0));
      ("(7 | diff) <= 5", Cmp (Le, Binop (Or, Const 7, diff), Const 5), (0, 1));
    ]

let domain_of_respects_constraints () =
  let d =
    Solver.Pc.domain_of
      (Solver.Pc.of_list [ Cmp (Lt, dst, Const 1000) ])
      (Binop (Add, Const 50, Binop (Mul, dst, Const 8)))
  in
  Alcotest.(check bool) "lo" true ((d : Solver.Domain.t).lo >= 50);
  Alcotest.(check bool) "hi" true ((d : Solver.Domain.t).hi <= 50 + (999 * 8));
  Alcotest.(check int) "step" 8 (d : Solver.Domain.t).step

let sat_models_random_linear =
  QCheck.Test.make ~name:"random invertible equalities solve" ~count:200
    QCheck.(triple (int_range 1 200) (int_range 0 4) (int_range 0 1000))
    (fun (mul, shift, c) ->
      let e = Binop (Add, Const 13, Binop (Mul, Binop (Lshr, dst, Const shift), Const mul)) in
      let target = 13 + (mul * c) in
      match Solver.Solve.sat [ Cmp (Eq, e, Const target) ] with
      | Sat m -> Solver.Solve.Model.eval m e = target
      | Unsat -> false
      | Unknown -> false)

let feasible_never_rejects_sat =
  QCheck.Test.make ~name:"feasible accepts satisfiable sets" ~count:100
    QCheck.(pair (int_range 0 65535) (int_range 0 255))
    (fun (port, proto) ->
      Solver.Solve.feasible
        [ Cmp (Eq, sport, Const port); Cmp (Eq, pkt0 Proto, Const proto) ])

(* Soundness of Unsat: build constraints that a known random assignment
   satisfies; the solver may time out (Unknown) but must never claim
   Unsat. *)
let never_unsat_on_satisfiable =
  QCheck.Test.make ~name:"sat never rejects a satisfiable set" ~count:300
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 6) arb_sexpr))
    (fun (seed, es) ->
      let leaf = assignment_of seed in
      (* turn each random expression into a constraint satisfied by [leaf] *)
      let cs =
        List.filter_map
          (fun e ->
            match eval ~leaf e with
            | exception Division_by_zero -> None
            | v -> Some (Cmp (Eq, e, Const v) : sexpr))
          es
      in
      match Solver.Solve.sat cs with
      | Unsat -> false
      | Sat m -> Solver.Solve.check m cs
      | Unknown -> true)

let tests =
  [
    qtest simplify_preserves_semantics;
    qtest negate_is_logical_not;
    qtest simplify_is_idempotent;
    qtest negate_is_simplified;
    Alcotest.test_case "simplify constants" `Quick simplify_constant_folds;
    qtest domain_ops_sound;
    Alcotest.test_case "meet exactness" `Quick domain_meet_exact;
    Alcotest.test_case "meet CRT" `Quick domain_meet_crt;
    qtest domain_sample_member;
    Alcotest.test_case "invert shift*mul" `Quick sat_shift_mul_chain;
    Alcotest.test_case "invert bit tests" `Quick sat_bit_tests;
    Alcotest.test_case "congruence" `Quick sat_congruence;
    Alcotest.test_case "field packing" `Quick sat_packing;
    Alcotest.test_case "xor chain" `Quick sat_xor_chain;
    Alcotest.test_case "ordering chain" `Quick sat_ordering_chain;
    Alcotest.test_case "disjunction" `Quick sat_disjunction;
    Alcotest.test_case "unsat: conflicting eq" `Quick unsat_conflicting_eq;
    Alcotest.test_case "unsat: width overflow" `Quick unsat_width_overflow;
    Alcotest.test_case "unsat: interval" `Quick unsat_interval;
    Alcotest.test_case "unsat: parked ordering" `Quick unsat_parked_ordering;
    Alcotest.test_case "unsat: congruence" `Quick unsat_congruence_conflict;
    Alcotest.test_case "unsat: order cycle" `Quick unsat_order_cycle;
    Alcotest.test_case "unsat: complement pair" `Quick unsat_direct_complement;
    Alcotest.test_case "cross-packet Ne" `Quick sat_cross_packet_ne;
    Alcotest.test_case "or over a negative operand" `Quick
      sat_or_negative_operand;
    Alcotest.test_case "domain_of" `Quick domain_of_respects_constraints;
    qtest sat_models_random_linear;
    qtest feasible_never_rejects_sat;
    qtest never_unsat_on_satisfiable;
  ]
