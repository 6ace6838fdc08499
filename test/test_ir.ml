(* Tests for castan.ir: expressions, memory, lowering, the interpreter. *)

open Ir.Dsl

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- expressions ---------------- *)

(* Random program expressions over two variables, avoiding division (the
   generator would have to dodge zero) and keeping shifts small. *)
let gen_expr : Ir.Expr.pexpr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           oneof
             [
               map (fun c -> Ir.Expr.Const c) (int_range 0 1000);
               oneofl [ Ir.Expr.Leaf "x"; Ir.Expr.Leaf "y" ];
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun c -> Ir.Expr.Const c) (int_range 0 1000);
               oneofl [ Ir.Expr.Leaf "x"; Ir.Expr.Leaf "y" ];
               map2
                 (fun op (a, b) -> Ir.Expr.Binop (op, a, b))
                 (oneofl Ir.Expr.[ Add; Sub; Mul; And; Or; Xor ])
                 (pair sub sub);
               map2
                 (fun op (a, b) -> Ir.Expr.Cmp (op, a, b))
                 (oneofl Ir.Expr.[ Eq; Ne; Lt; Le ])
                 (pair sub sub);
               map (fun (c, (a, b)) -> Ir.Expr.Ite (c, a, b)) (pair sub (pair sub sub));
             ])

let arb_expr = QCheck.make ~print:(Ir.Expr.to_string Format.pp_print_string) gen_expr

let subst_commutes_with_eval =
  QCheck.Test.make ~name:"subst commutes with eval" ~count:500
    QCheck.(pair (make gen_expr) (pair small_int small_int))
    (fun (e, (x, y)) ->
      let leaf = function "x" -> x | _ -> y in
      let direct = Ir.Expr.eval ~leaf e in
      let substituted =
        Ir.Expr.subst (fun v -> Ir.Expr.Const (leaf v)) e
        |> Ir.Expr.eval ~leaf:(fun _ -> assert false)
      in
      direct = substituted)

let ops_bounded_by_size =
  QCheck.Test.make ~name:"ops < size" ~count:300 arb_expr (fun e ->
      Ir.Expr.ops e < Ir.Expr.size e)

let fold_counts_leaves =
  QCheck.Test.make ~name:"fold_leaves counts leaves" ~count:300 arb_expr
    (fun e ->
      let n1 = Ir.Expr.fold_leaves (fun acc _ -> acc + 1) 0 e in
      let n2 = ref 0 in
      Ir.Expr.iter_leaves (fun _ -> incr n2) e;
      n1 = !n2)

let field_widths () =
  Alcotest.(check int) "src ip" 32 Ir.Expr.(field_width Src_ip);
  Alcotest.(check int) "proto" 8 Ir.Expr.(field_width Proto);
  Alcotest.(check int) "port" 16 Ir.Expr.(field_width Src_port)

let fresh_syms_distinct () =
  let a = Ir.Expr.fresh ~label:"t" ~width:16 in
  let b = Ir.Expr.fresh ~label:"t" ~width:24 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "width recorded" 24 (Ir.Expr.sym_width b)

(* ---------------- memory ---------------- *)

let mem_layout () =
  let specs =
    [
      Ir.Memory.array_spec ~name:"a" ~elem_width:8 ~count:10 ();
      Ir.Memory.array_spec ~name:"b" ~elem_width:4 ~count:100 ();
    ]
  in
  let layout = Ir.Memory.layout specs in
  let a = List.assoc "a" layout and b = List.assoc "b" layout in
  Alcotest.(check int) "first at origin" 0x4000_0000 a.Ir.Memory.base;
  Alcotest.(check bool) "b after a" true (b.Ir.Memory.base >= Ir.Memory.region_end a);
  Alcotest.(check int) "page aligned" 0 (b.Ir.Memory.base mod 4096)

let mem_lazy_init_and_overlay () =
  let specs =
    [ Ir.Memory.array_spec ~name:"t" ~elem_width:8 ~count:1000 ~init:(fun i -> i * 7) () ]
  in
  let m = Ir.Memory.create ~regions:specs ~heap_bytes:4096 ~inject:Fun.id in
  let base = (Ir.Memory.region_named m "t").Ir.Memory.base in
  Alcotest.(check int) "init value" 21 (Ir.Memory.read m ~addr:(base + 24) ~width:8);
  let m2 = Ir.Memory.write m ~addr:(base + 24) ~width:8 99 in
  Alcotest.(check int) "overlay read" 99 (Ir.Memory.read m2 ~addr:(base + 24) ~width:8);
  Alcotest.(check int) "persistent: original untouched" 21
    (Ir.Memory.read m ~addr:(base + 24) ~width:8)

let mem_alignment_enforced () =
  let specs = [ Ir.Memory.array_spec ~name:"t" ~elem_width:8 ~count:10 () ] in
  let m = Ir.Memory.create ~regions:specs ~heap_bytes:4096 ~inject:Fun.id in
  let base = (Ir.Memory.region_named m "t").Ir.Memory.base in
  Alcotest.check_raises "misaligned"
    (Invalid_argument
       (Printf.sprintf "Memory: misaligned access 0x%x in region t" (base + 3)))
    (fun () -> ignore (Ir.Memory.read m ~addr:(base + 3) ~width:8));
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Memory: 4-byte access in region t (elem width 8)")
    (fun () -> ignore (Ir.Memory.read m ~addr:base ~width:4))

let mem_out_of_bounds () =
  let m = Ir.Memory.create ~regions:[] ~heap_bytes:4096 ~inject:Fun.id in
  match Ir.Memory.read m ~addr:100 ~width:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds failure"

let mem_alloc_rounds_to_lines () =
  let m = Ir.Memory.create ~regions:[] ~heap_bytes:4096 ~inject:Fun.id in
  let m, a1 = Ir.Memory.alloc m ~bytes:24 in
  let m, a2 = Ir.Memory.alloc m ~bytes:1 in
  Alcotest.(check int) "line-separated" 64 (a2 - a1);
  Alcotest.(check int) "used" 128 (Ir.Memory.heap_used m)

let mem_alloc_exhaustion () =
  let m = Ir.Memory.create ~regions:[] ~heap_bytes:128 ~inject:Fun.id in
  let m, _ = Ir.Memory.alloc m ~bytes:64 in
  let m, _ = Ir.Memory.alloc m ~bytes:64 in
  match Ir.Memory.alloc m ~bytes:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected heap exhaustion"

let mem_read_write_roundtrip =
  QCheck.Test.make ~name:"memory write/read roundtrip" ~count:200
    QCheck.(pair (int_range 0 999) (int_range 0 1_000_000))
    (fun (idx, value) ->
      let specs = [ Ir.Memory.array_spec ~name:"t" ~elem_width:8 ~count:1000 () ] in
      let m = Ir.Memory.create ~regions:specs ~heap_bytes:0x1000 ~inject:Fun.id in
      let base = (Ir.Memory.region_named m "t").Ir.Memory.base in
      let addr = base + (idx * 8) in
      let m = Ir.Memory.write m ~addr ~width:8 value in
      Ir.Memory.read m ~addr ~width:8 = value)

(* ---------------- persistent vs flat store ---------------- *)

type mem_op =
  | Read of int * int  (* address, width *)
  | Write of int * int * int  (* address, width, value *)
  | Alloc of int  (* bytes *)

let print_mem_op = function
  | Read (a, w) -> Printf.sprintf "read 0x%x/%d" a w
  | Write (a, w, v) -> Printf.sprintf "write 0x%x/%d := %d" a w v
  | Alloc b -> Printf.sprintf "alloc %d" b

(* A [width]-byte access somewhere in [regions], mostly legal: now and then
   past a region's end, misaligned, of the wrong width, or anywhere in the
   address space. *)
let gen_access (regions : Ir.Memory.region list) =
  let open QCheck.Gen in
  let first = List.hd regions
  and last = List.nth regions (List.length regions - 1) in
  frequency
    [
      ( 1,
        pair
          (int_range (first.base - 64) (Ir.Memory.region_end last + 64))
          (oneofl [ 1; 2; 4; 8 ]) );
      ( 8,
        let* (r : Ir.Memory.region) = oneofl regions in
        let* k =
          oneof
            [
              int_range 0 3;
              int_range (r.count - 3) (r.count + 1);
              int_range 0 (r.count + 1);
            ]
        and* off = frequency [ (6, return 0); (1, int_range 1 7) ]
        and* width =
          frequency [ (6, return r.elem_width); (1, oneofl [ 1; 2; 4; 8 ]) ]
        in
        return (r.base + (k * r.elem_width) + off, width) );
    ]

(* A region layout with every element width and both Flat representations
   (dense up to 2^18 elements, sparse above) and a small heap, as a fresh
   persistent store; the operations that build its overlay and heap cursor;
   and the operations to apply to it and to its flat copy. *)
let gen_store_case =
  let open QCheck.Gen in
  let* specs =
    list_size (int_range 1 4)
      (let* elem_width = oneofl [ 1; 2; 4; 8 ]
       and* count =
         oneof [ int_range 1 40; int_range ((1 lsl 18) + 1) ((1 lsl 18) + 40) ]
       and* salt = int_range 0 0xffff in
       return (elem_width, count, salt))
  and* heap_bytes = oneofl [ 64; 128; 512 ] in
  let specs =
    List.mapi
      (fun i (elem_width, count, salt) ->
        Ir.Memory.array_spec ~name:(Printf.sprintf "r%d" i) ~elem_width ~count
          ~init:(fun k -> (k * 7919) lxor salt)
          ())
      specs
  in
  let m = Ir.Memory.create ~regions:specs ~heap_bytes ~inject:Fun.id in
  let regions =
    List.map (Ir.Memory.region_named m)
      (List.map (fun s -> s.Ir.Memory.s_name) specs @ [ "heap" ])
  in
  let gen_op =
    frequency
      [
        (4, map (fun (a, w) -> Read (a, w)) (gen_access regions));
        ( 3,
          map2
            (fun (a, w) v -> Write (a, w, v))
            (gen_access regions) (int_range 0 1_000_000) );
        (1, map (fun b -> Alloc b) (int_range 0 100));
      ]
  in
  let* overlay = list_size (int_range 0 30) gen_op
  and* ops = list_size (int_range 1 60) gen_op in
  return (m, overlay, ops)

(* One operation on each store: the value read, the address allocated or 0
   for a write, or the error message; the persistent store also returns its
   successor. *)
let persistent_step m = function
  | Read (addr, width) -> (Ir.Memory.try_read m ~addr ~width, m)
  | Write (addr, width, v) -> (
      match Ir.Memory.try_write m ~addr ~width v with
      | Ok m -> (Ok 0, m)
      | Error e -> (Error e, m))
  | Alloc bytes -> (
      match Ir.Memory.try_alloc m ~bytes with
      | Ok (m, a) -> (Ok a, m)
      | Error e -> (Error e, m))

let flat_step flat op =
  match
    match op with
    | Read (addr, width) -> Ir.Memory.Flat.read flat ~addr ~width
    | Write (addr, width, v) ->
        Ir.Memory.Flat.write flat ~addr ~width v;
        0
    | Alloc bytes -> Ir.Memory.Flat.alloc flat ~bytes
  with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg

(* [flat_of_memory] replays the overlay, and both stores share one region
   lookup, one access check and one heap rule: every operation gives the
   flat store the persistent store's value, address or error message. *)
let stores_agree =
  let print_ops ops = String.concat "; " (List.map print_mem_op ops) in
  let show = function Ok v -> string_of_int v | Error e -> e in
  QCheck.Test.make ~name:"Flat agrees with the persistent store" ~count:300
    (QCheck.make
       ~print:(fun (_, overlay, ops) ->
         Printf.sprintf "overlay [%s]; ops [%s]" (print_ops overlay)
           (print_ops ops))
       gen_store_case)
    (fun (m, overlay, ops) ->
      let m = List.fold_left (fun m op -> snd (persistent_step m op)) m overlay in
      let flat = Ir.Memory.flat_of_memory m in
      List.fold_left
        (fun m op ->
          let expect, m = persistent_step m op in
          let got = flat_step flat op in
          if got <> expect then
            QCheck.Test.fail_reportf "%s: persistent %s, flat %s"
              (print_mem_op op) (show expect) (show got);
          m)
        m ops
      |> ignore;
      true)

(* ---------------- lowering + interpreter ---------------- *)

let run_program ?(args = []) prog fname =
  let cfg = Ir.Lower.program prog in
  let mem = ref (Ir.Memory.create ~regions:cfg.Ir.Cfg.regions
                   ~heap_bytes:cfg.Ir.Cfg.heap_bytes ~inject:Fun.id) in
  Ir.Interp.call cfg ~mem ~hooks:Ir.Interp.no_hooks fname args

let interp_arithmetic () =
  let prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [ "a"; "b" ] [ ret (((v "a" +: v "b") *: i 3) -: i 1) ] ]
  in
  Alcotest.(check int) "arith" 20 (run_program ~args:[ 3; 4 ] prog "main").ret

let interp_while_loop () =
  (* sum of 1..n *)
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [ "n" ]
          [
            "s" <-- i 0;
            "k" <-- i 1;
            while_ (v "k" <=: v "n")
              [ "s" <-- v "s" +: v "k"; "k" <-- v "k" +: i 1 ];
            ret (v "s");
          ];
      ]
  in
  Alcotest.(check int) "sum 1..10" 55 (run_program ~args:[ 10 ] prog "main").ret

let interp_break () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [ "n" ]
          [
            "k" <-- i 0;
            while_ (i 1)
              [
                when_ (v "k" >=: v "n") [ break_ ];
                "k" <-- v "k" +: i 1;
              ];
            ret (v "k");
          ];
      ]
  in
  Alcotest.(check int) "break exits" 7 (run_program ~args:[ 7 ] prog "main").ret

let interp_nested_if () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [ "x" ]
          [
            if_ (v "x" <: i 10)
              [ if_ (v "x" <: i 5) [ ret (i 1) ] [ ret (i 2) ] ]
              [ ret (i 3) ];
          ];
      ]
  in
  Alcotest.(check int) "x=3" 1 (run_program ~args:[ 3 ] prog "main").ret;
  Alcotest.(check int) "x=7" 2 (run_program ~args:[ 7 ] prog "main").ret;
  Alcotest.(check int) "x=30" 3 (run_program ~args:[ 30 ] prog "main").ret

let interp_calls () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "double" [ "x" ] [ ret (v "x" *: i 2) ];
        func "main" [ "a" ]
          [ call "d" "double" [ v "a" +: i 1 ]; ret (v "d" +: i 5) ];
      ]
  in
  Alcotest.(check int) "call" 13 (run_program ~args:[ 3 ] prog "main").ret

let interp_memory_program () =
  (* store then load through a region *)
  let regions = [ Ir.Memory.array_spec ~name:"arr" ~elem_width:8 ~count:16 () ] in
  let base = Nf.Nf_def.region_base regions "arr" in
  let prog =
    program ~name:"t" ~entry:"main" ~regions
      [
        func "main" [ "idx"; "value" ]
          [
            store8 (i base +: (v "idx" *: i 8)) (v "value");
            load8 "out" (i base +: (v "idx" *: i 8));
            ret (v "out");
          ];
      ]
  in
  let o = run_program ~args:[ 3; 42 ] prog "main" in
  Alcotest.(check int) "store/load" 42 o.ret;
  Alcotest.(check int) "one load" 1 o.loads;
  Alcotest.(check int) "one store" 1 o.stores

let interp_alloc () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" []
          [
            alloc "p" 16;
            store8 (v "p") (i 11);
            alloc "q" 16;
            store8 (v "q") (i 22);
            load8 "a" (v "p");
            load8 "b" (v "q");
            ret (v "a" +: v "b");
          ];
      ]
  in
  Alcotest.(check int) "allocations disjoint" 33 (run_program prog "main").ret

let interp_budget () =
  let prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [] [ while_ (i 1) [ "x" <-- i 0 ]; ret (i 0) ] ]
  in
  let cfg = Ir.Lower.program prog in
  let mem = ref (Ir.Memory.create ~regions:[] ~heap_bytes:0x1000 ~inject:Fun.id) in
  match Ir.Interp.call cfg ~mem ~hooks:Ir.Interp.no_hooks ~budget:1000 "main" [] with
  | exception Ir.Interp.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected budget exhaustion"

let lower_loop_head_flag () =
  let prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [ "n" ] [ while_ (v "n" >: i 0) [ "n" <-- v "n" -: i 1 ]; ret (i 0) ] ]
  in
  let cfg = Ir.Lower.program prog in
  let f = Ir.Cfg.entry_func cfg in
  let heads =
    Array.to_list f.body
    |> List.filter (function Ir.Cfg.Branch { loop_head = true; _ } -> true | _ -> false)
  in
  Alcotest.(check int) "one loop head" 1 (List.length heads)

let lower_fallthrough_return () =
  let prog =
    program ~name:"t" ~entry:"main" [ func "main" [] [ "x" <-- i 1 ] ]
  in
  let cfg = Ir.Lower.program prog in
  let f = Ir.Cfg.entry_func cfg in
  match f.body.(Array.length f.body - 1) with
  | Ir.Cfg.Return None -> ()
  | _ -> Alcotest.fail "missing synthesized return"

let icfg_detects_recursion () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [] [ call "x" "f" []; ret (v "x") ];
        func "f" [] [ call "x" "main" []; ret (v "x") ];
      ]
  in
  let cfg = Ir.Lower.program prog in
  match Ir.Icfg.topo_order cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected recursion rejection"

let icfg_topo_order () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [] [ call "x" "mid" []; ret (v "x") ];
        func "mid" [] [ call "x" "leaf" []; ret (v "x") ];
        func "leaf" [] [ ret (i 1) ];
      ]
  in
  Alcotest.(check (list string)) "callees first" [ "leaf"; "mid"; "main" ]
    (Ir.Icfg.topo_order (Ir.Lower.program prog))

let weight_counts_ops () =
  Alcotest.(check int) "simple assign" 1 (Ir.Cfg.weight (Ir.Cfg.Assign ("x", Const 1)));
  Alcotest.(check int) "compound"
    3
    (Ir.Cfg.weight
       (Ir.Cfg.Assign ("x", Binop (Add, Binop (Mul, Leaf "a", Const 2), Const 1))))

(* Hooks that log every memory access, newest first. *)
let recording_hooks () =
  let log = ref [] in
  ( {
      Ir.Interp.on_access =
        (fun ~addr ~width ~write -> log := (addr, width, write) :: !log);
    },
    log )

(* The compiled executor must agree with the reference interpreter on every
   NF: same results, same retired instructions, loads and stores, and the
   same (addr, width, write) access sequence — what the testbed's cache
   model is driven by. *)
let compiled_matches_interp =
  QCheck.Test.make ~name:"Compile agrees with Interp on the NFs" ~count:12
    (QCheck.oneofl
       [ "lpm-btrie"; "lpm-1stage-dl"; "lpm-2stage-dl"; "nat-hash-table";
         "lb-hash-ring"; "nat-hash-ring"; "nat-red-black-tree";
         "lb-unbalanced-tree" ])
    (fun name ->
      let nf = Nf.Registry.find name in
      let hooks_i, log_i = recording_hooks () in
      let hooks_c, log_c = recording_hooks () in
      let process =
        Ir.Compile.lookup (Ir.Compile.program nf.program) "process"
      in
      let mem_i = ref (Nf.Nf_def.fresh_memory nf) in
      let mem_c = Ir.Memory.flat_of_memory (Nf.Nf_def.fresh_memory nf) in
      let entry = Ir.Cfg.entry_func nf.program in
      let rng = Util.Rng.create 1234 in
      let ok = ref true in
      for _ = 1 to 40 do
        let p = nf.shape (Testbed.Traffic.random_packet rng) in
        let args = Nf.Packet.args_for entry p in
        let a =
          Ir.Interp.call nf.program ~mem:mem_i ~hooks:hooks_i "process" args
        in
        let b =
          Ir.Compile.call process ~mem:mem_c ~hooks:hooks_c
            (Array.of_list args)
        in
        if a <> b then ok := false
      done;
      !ok && !log_i <> [] && !log_i = !log_c)

let compiled_budget () =
  let prog =
    program ~name:"t" ~entry:"main"
      [ func "main" [] [ while_ (i 1) [ "x" <-- i 0 ]; ret (i 0) ] ]
  in
  let main =
    Ir.Compile.lookup (Ir.Compile.program (Ir.Lower.program prog)) "main"
  in
  let mem =
    Ir.Memory.flat_of_memory
      (Ir.Memory.create ~regions:[] ~heap_bytes:0x1000 ~inject:Fun.id)
  in
  match Ir.Compile.call main ~mem ~hooks:Ir.Interp.no_hooks ~budget:1000 [||] with
  | exception Ir.Interp.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected budget exhaustion"

(* Compiled frames are pooled per function and argument buffers belong to
   call sites, so state must not leak between calls.  On one compiled
   program and one context, recursive Fibonacci runs cut short by the
   budget (abandoning frames at every depth) and then run to completion
   agree with the interpreter; and a reused frame reads 0 for a variable
   this call never wrote. *)
let compiled_recursion_reuse () =
  let prog =
    program ~name:"t" ~entry:"fib"
      [
        func "fib" [ "n" ]
          [
            when_ (v "n" <: i 2) [ ret (v "n") ];
            call "a" "fib" [ v "n" -: i 1 ];
            call "b" "fib" [ v "n" -: i 2 ];
            ret (v "a" +: v "b");
          ];
        func "maybe" [ "x" ]
          [ when_ (v "x" >: i 0) [ "y" <-- i 7 ]; ret (v "y") ];
      ]
  in
  let cfg = Ir.Lower.program prog in
  let compiled = Ir.Compile.program cfg in
  let fresh () =
    Ir.Memory.create ~regions:[] ~heap_bytes:0x1000 ~inject:Fun.id
  in
  let ctx =
    Ir.Compile.context ~mem:(Ir.Memory.flat_of_memory (fresh ()))
      ~hooks:Ir.Interp.no_hooks
  in
  let fib = Ir.Compile.lookup compiled "fib" in
  for n = 0 to 12 do
    let expected =
      Ir.Interp.call cfg ~mem:(ref (fresh ())) ~hooks:Ir.Interp.no_hooks "fib"
        [ n ]
    in
    (match Ir.Compile.run ctx ~budget:(expected.instrs / 2) fib [| n |] with
    | exception Ir.Interp.Budget_exhausted -> ()
    | _ -> Alcotest.failf "fib %d: half the budget completed" n);
    let ret = Ir.Compile.run ctx fib [| n |] in
    Alcotest.(check int) (Printf.sprintf "fib %d" n) expected.ret ret;
    Alcotest.(check bool)
      (Printf.sprintf "fib %d: outcome" n)
      true
      (Ir.Compile.outcome ctx = expected)
  done;
  let maybe = Ir.Compile.lookup compiled "maybe" in
  Alcotest.(check int) "written" 7 (Ir.Compile.run ctx maybe [| 1 |]);
  Alcotest.(check int) "unwritten in a reused frame" 0
    (Ir.Compile.run ctx maybe [| 0 |])

(* A havoc's hash is resolved in Ir.Hashes when its site is compiled, so a
   program that names an undeclared hash fails before any packet runs. *)
let compiled_undeclared_hash () =
  let prog =
    program ~name:"t" ~entry:"main"
      [
        func "main" [ "k" ]
          [ havoc "h" ~input:(v "k") ~hash:"sha256"; ret (v "h") ];
      ]
  in
  Alcotest.check_raises "at compile time"
    (Invalid_argument "Hashes.lookup: unknown hash sha256") (fun () ->
      ignore (Ir.Compile.program (Ir.Lower.program prog)))

let tests =
  [
    qtest subst_commutes_with_eval;
    qtest ops_bounded_by_size;
    qtest fold_counts_leaves;
    Alcotest.test_case "field widths" `Quick field_widths;
    Alcotest.test_case "fresh syms" `Quick fresh_syms_distinct;
    Alcotest.test_case "memory layout" `Quick mem_layout;
    Alcotest.test_case "memory lazy init + overlay" `Quick mem_lazy_init_and_overlay;
    Alcotest.test_case "memory alignment" `Quick mem_alignment_enforced;
    Alcotest.test_case "memory bounds" `Quick mem_out_of_bounds;
    Alcotest.test_case "alloc rounds to lines" `Quick mem_alloc_rounds_to_lines;
    Alcotest.test_case "alloc exhaustion" `Quick mem_alloc_exhaustion;
    qtest mem_read_write_roundtrip;
    qtest stores_agree;
    Alcotest.test_case "interp arithmetic" `Quick interp_arithmetic;
    Alcotest.test_case "interp while" `Quick interp_while_loop;
    Alcotest.test_case "interp break" `Quick interp_break;
    Alcotest.test_case "interp nested if" `Quick interp_nested_if;
    Alcotest.test_case "interp calls" `Quick interp_calls;
    Alcotest.test_case "interp memory" `Quick interp_memory_program;
    Alcotest.test_case "interp alloc" `Quick interp_alloc;
    Alcotest.test_case "interp budget" `Quick interp_budget;
    Alcotest.test_case "lower loop-head flag" `Quick lower_loop_head_flag;
    Alcotest.test_case "lower fallthrough ret" `Quick lower_fallthrough_return;
    Alcotest.test_case "icfg recursion" `Quick icfg_detects_recursion;
    Alcotest.test_case "icfg topo order" `Quick icfg_topo_order;
    Alcotest.test_case "instr weight" `Quick weight_counts_ops;
    qtest compiled_matches_interp;
    Alcotest.test_case "compiled budget" `Quick compiled_budget;
    Alcotest.test_case "compiled recursion and frame reuse" `Quick
      compiled_recursion_reuse;
    Alcotest.test_case "compiled havoc of an undeclared hash" `Quick
      compiled_undeclared_hash;
  ]
