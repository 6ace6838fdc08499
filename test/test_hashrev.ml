(* Tests for castan.hashrev: hash functions, rainbow tables, havoc
   reconciliation. *)

let qtest = QCheck_alcotest.to_alcotest

let hash_deterministic =
  QCheck.Test.make ~name:"hashes are deterministic and in range" ~count:500
    QCheck.(pair (oneofl [ "flow16"; "ring24" ]) (int_range 0 (1 lsl 48)))
    (fun (name, key) ->
      let h = Ir.Hashes.lookup name in
      let v1 = h.apply key and v2 = h.apply key in
      v1 = v2 && v1 >= 0 && v1 <= Ir.Hashes.mask h)

let hash_mixes_bits () =
  (* flipping one input bit should change the output most of the time *)
  let h = Ir.Hashes.flow16 in
  let changed = ref 0 in
  for bit = 0 to 47 do
    if h.apply 0x123456789AB <> h.apply (0x123456789AB lxor (1 lsl bit)) then
      incr changed
  done;
  Alcotest.(check bool) "avalanche" true (!changed > 40)

let hash_unknown_rejected () =
  match Ir.Hashes.lookup "sha256" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* 2^20 keys over a 16-bit hash: ~16 preimages per value, enough to give
   each packet of a colliding workload its own flow. *)
let small_keyspace =
  Hashrev.Rainbow.keyspace ~name:"test" ~count:(1 lsl 20) ~key_of_index:(fun i ->
      ((0x0A000000 + (i lsr 12)) lsl 16) lor (1024 + (i land 0xFFF)))

(* Built once: the table is reused by several tests. *)
let exhaustive_table =
  lazy (Hashrev.Rainbow.build_exhaustive ~hash:Ir.Hashes.flow16 small_keyspace)

let exhaustive_inverts =
  QCheck.Test.make ~name:"exhaustive table inverts its keyspace" ~count:200
    (QCheck.int_range 0 ((1 lsl 20) - 1))
    (fun idx ->
      let hash = Ir.Hashes.flow16 in
      let t = Lazy.force exhaustive_table in
      let key = small_keyspace.key_of_index idx in
      let hv = hash.apply key in
      List.mem key (Hashrev.Rainbow.invert t hv))

let exhaustive_results_verified () =
  let hash = Ir.Hashes.flow16 in
  let t = Lazy.force exhaustive_table in
  for hv = 0 to 200 do
    List.iter
      (fun key ->
        Alcotest.(check int) "preimage verifies" hv (hash.apply key))
      (Hashrev.Rainbow.invert t hv)
  done

let exhaustive_full_coverage () =
  let t = Lazy.force exhaustive_table in
  let cov = Hashrev.Rainbow.coverage_sample t ~samples:300 in
  Alcotest.(check (float 0.001)) "coverage 1.0" 1.0 cov

let chains_invert_verified () =
  let hash = Ir.Hashes.flow16 in
  let t = Hashrev.Rainbow.build ~hash ~chains:2048 ~chain_len:32 small_keyspace in
  let rng = Util.Rng.create 5 in
  let found = ref 0 in
  for _ = 1 to 50 do
    let key = small_keyspace.key_of_index (Util.Rng.int rng small_keyspace.count) in
    let hv = hash.apply key in
    let preimages = Hashrev.Rainbow.invert t hv in
    List.iter
      (fun k -> Alcotest.(check int) "verified" hv (hash.apply k))
      preimages;
    if preimages <> [] then incr found
  done;
  (* chains cover only part of the space; expect nonzero hit rate *)
  Alcotest.(check bool) "some coverage" true (!found > 5)

(* A chain table dense enough to exercise every branch of inversion: over
   a 16-bit hash, 4,096 chains of 64 steps merge into about 1,400
   endpoints, two thirds of whose buckets hold several chains, and for
   about 400 of the 1,024 values [chain_invert_pinned] inverts, two
   columns' walks reach the same stored endpoint. *)
let chain_table =
  lazy
    (Hashrev.Rainbow.build ~hash:Ir.Hashes.flow16 ~chains:4096
       ~chain_len:64 small_keyspace)

(* [invert]'s candidate order is what reconciliation commits in, so the
   whole key list of each value is pinned, not just its verification. *)
let chain_invert_pinned () =
  let t = Lazy.force chain_table in
  let buf = Buffer.create 65536 in
  let found = ref 0 in
  for i = 0 to 1023 do
    let hv = (i * 40503) land 0xFFFF in
    let keys = Hashrev.Rainbow.invert t hv in
    if keys <> [] then incr found;
    Printf.bprintf buf "%d:%s\n" hv
      (String.concat "," (List.map string_of_int keys))
  done;
  Alcotest.(check string) "key lists of 1,024 values"
    "f6691d9f905919063ccdf7135974576f 899"
    (Printf.sprintf "%s %d"
       (Digest.to_hex (Digest.string (Buffer.contents buf)))
       !found)

let reconcile_single_havoc () =
  let out = Ir.Expr.fresh ~label:"flow16" ~width:16 in
  let key_expr : Ir.Expr.sexpr =
    Binop
      ( Or,
        Binop (Shl, Leaf (Ir.Expr.Pkt { pkt = 0; field = Src_ip }), Const 16),
        Leaf (Ir.Expr.Pkt { pkt = 0; field = Src_port }) )
  in
  let hash = Ir.Hashes.flow16 in
  let table = Lazy.force exhaustive_table in
  let pcs : Ir.Expr.sexpr list =
    [ Cmp (Eq, Binop (And, Leaf out, Const 0xFFFF), Const 0x4242) ]
  in
  let havocs =
    [ { Hashrev.Reconcile.hv_pkt = 0; hv_hash = "flow16"; hv_input = key_expr;
        hv_output = out } ]
  in
  let r =
    Hashrev.Reconcile.run
      ~tables:(fun n -> if n = "flow16" then Some table else None)
      ~pc:(Solver.Pc.of_list pcs) ~havocs ()
  in
  Alcotest.(check int) "reconciled" 1 (List.length r.reconciled);
  match Solver.Solve.sat r.constraints with
  | Sat m ->
      let src = Solver.Solve.Model.get m (Pkt { pkt = 0; field = Src_ip }) in
      let port = Solver.Solve.Model.get m (Pkt { pkt = 0; field = Src_port }) in
      Alcotest.(check int) "packet hashes to target" 0x4242
        (hash.apply ((src lsl 16) lor port))
  | _ -> Alcotest.fail "reconciled constraints unsolvable"

(* [n] packets forced to hash to [value], every flow distinct. *)
let collision_chain ~table ~value n =
  let havocs =
    List.init n (fun pkt ->
        let out = Ir.Expr.fresh ~label:"flow16" ~width:16 in
        let key : Ir.Expr.sexpr =
          Binop
            ( Or,
              Binop (Shl, Leaf (Ir.Expr.Pkt { pkt; field = Src_ip }), Const 16),
              Leaf (Ir.Expr.Pkt { pkt; field = Src_port }) )
        in
        (pkt, key, out))
  in
  let pcs =
    List.map
      (fun (_, _, out) : Ir.Expr.sexpr -> Cmp (Eq, Leaf out, Const value))
      havocs
    @ List.concat_map
        (fun (i, ki, _) ->
          List.filter_map
            (fun (j, kj, _) ->
              if j < i then Some (Ir.Expr.Cmp (Ne, ki, kj)) else None)
            havocs)
        havocs
  in
  let records =
    List.map
      (fun (pkt, key, out) ->
        { Hashrev.Reconcile.hv_pkt = pkt; hv_hash = "flow16"; hv_input = key;
          hv_output = out })
      havocs
  in
  ( havocs,
    Hashrev.Reconcile.run
      ~tables:(fun n -> if n = "flow16" then Some table else None)
      ~pc:(Solver.Pc.of_list pcs) ~havocs:records () )

let reconcile_collision_chain () =
  let hash = Ir.Hashes.flow16 in
  let n = 6 in
  let havocs, r =
    collision_chain ~table:(Lazy.force exhaustive_table) ~value:0x777 n
  in
  Alcotest.(check int) "all reconciled" n (List.length r.reconciled);
  match Solver.Solve.sat r.constraints with
  | Sat m ->
      let keys =
        List.map
          (fun (pkt, _, _) ->
            let src = Solver.Solve.Model.get m (Pkt { pkt; field = Src_ip }) in
            let port = Solver.Solve.Model.get m (Pkt { pkt; field = Src_port }) in
            (src lsl 16) lor port)
          havocs
      in
      Alcotest.(check int) "distinct keys" n
        (List.length (List.sort_uniq compare keys));
      List.iter
        (fun k -> Alcotest.(check int) "collides" 0x777 (hash.apply k))
        keys
  | _ -> Alcotest.fail "collision constraints unsolvable"

(* The same shape through the chain table, which inverts 0xfa0 to four
   keys, so two of the six havocs stay open: the committed keys, their order
   and which havocs stay open are pinned. *)
let reconcile_collision_chain_table () =
  (* The rendered constraints name the havoc outputs by their fresh ids. *)
  Ir.Expr.reset_fresh ();
  let _, r = collision_chain ~table:(Lazy.force chain_table) ~value:0xfa0 6 in
  let render = Format.asprintf "%a" Ir.Expr.pp_sexpr in
  Alcotest.(check string) "counts and constraints"
    "4 2 2f56e00800cba26e41f1a68d1748d7db"
    (Printf.sprintf "%d %d %s" (List.length r.reconciled)
       (List.length r.unreconciled)
       (Digest.to_hex
          (Digest.string (String.concat "\n" (List.map render r.constraints)))))

let reconcile_without_table () =
  let out = Ir.Expr.fresh ~label:"flow16" ~width:16 in
  let havocs =
    [ { Hashrev.Reconcile.hv_pkt = 0; hv_hash = "flow16";
        hv_input = Ir.Expr.Const 7; hv_output = out } ]
  in
  let r =
    Hashrev.Reconcile.run ~tables:(fun _ -> None) ~pc:Solver.Pc.empty ~havocs ()
  in
  Alcotest.(check int) "unreconciled" 1 (List.length r.unreconciled);
  Alcotest.(check int) "constraints unchanged" 0 (List.length r.constraints)

let keyspace_injective =
  QCheck.Test.make ~name:"tailored keyspaces are injective" ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (i, j) ->
      QCheck.assume (i <> j);
      small_keyspace.key_of_index i <> small_keyspace.key_of_index j)

(* Reduction masks hash values into the key space, which only equals
   [mod count] when the count is a power of two. *)
let keyspace_rejects_non_powers_of_two () =
  List.iter
    (fun count ->
      match Hashrev.Rainbow.keyspace ~name:"bad" ~count ~key_of_index:Fun.id with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "count %d accepted" count)
    [ 0; 3 lsl 20 ]

let tests =
  [
    qtest hash_deterministic;
    Alcotest.test_case "hash avalanche" `Quick hash_mixes_bits;
    Alcotest.test_case "unknown hash" `Quick hash_unknown_rejected;
    qtest exhaustive_inverts;
    Alcotest.test_case "exhaustive verified" `Quick exhaustive_results_verified;
    Alcotest.test_case "exhaustive coverage" `Quick exhaustive_full_coverage;
    Alcotest.test_case "chains invert" `Quick chains_invert_verified;
    Alcotest.test_case "chain table inversion pinned" `Quick chain_invert_pinned;
    Alcotest.test_case "reconcile one havoc" `Quick reconcile_single_havoc;
    Alcotest.test_case "reconcile collision chain" `Slow reconcile_collision_chain;
    Alcotest.test_case "reconcile through a chain table pinned" `Quick
      reconcile_collision_chain_table;
    Alcotest.test_case "reconcile without table" `Quick reconcile_without_table;
    qtest keyspace_injective;
    Alcotest.test_case "keyspace power of two" `Quick keyspace_rejects_non_powers_of_two;
  ]
