(* Differential testing of Lower: a direct reference evaluator for the
   structured AST, compared against the lowered-CFG interpreter (and the
   closure compiler) on randomly generated well-formed programs, havocs
   included. *)

open Ir.Dsl

(* ---------------- reference evaluator over Ast.stmt ---------------- *)

exception Ref_return of int
exception Ref_break

let rec ref_exec env stmts =
  List.iter
    (fun (s : Ir.Ast.stmt) ->
      match s with
      | Assign (x, e) -> Hashtbl.replace env x (ref_eval env e)
      | If (c, a, b) -> ref_exec env (if ref_eval env c <> 0 then a else b)
      | While (c, body) -> (
          try
            while ref_eval env c <> 0 do
              ref_exec env body
            done
          with Ref_break -> ())
      | Break -> raise Ref_break
      | Return (Some e) -> raise (Ref_return (ref_eval env e))
      | Return None -> raise (Ref_return 0)
      | Havoc (x, e, hash) ->
          let h = Ir.Hashes.lookup hash in
          Hashtbl.replace env x (h.apply (ref_eval env e))
      | Load _ | Store _ | Alloc _ | Call _ ->
          failwith "reference evaluator: no memory or calls")
    stmts

and ref_eval env e =
  Ir.Expr.eval ~leaf:(fun x -> try Hashtbl.find env x with Not_found -> 0) e

let ref_run (f : Ir.Ast.fdef) args =
  let env = Hashtbl.create 8 in
  List.iter2 (fun p a -> Hashtbl.replace env p a) f.params args;
  match ref_exec env f.body with
  | () -> 0
  | exception Ref_return v -> v

(* ---------------- random structured programs ---------------- *)

(* All variables drawn from a fixed set, pre-initialized by assignment at
   the top so reads are always defined; loops bounded by construction
   (counter "k" increments to a small constant). *)
let vars = [ "a"; "b"; "c" ]

let gen_expr : Ir.Expr.pexpr QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ QCheck.Gen.fix (fun self n ->
      let leaf =
        oneof [ map i (int_range 0 50); map v (oneofl vars) ]
      in
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> a +: b) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> a -: b) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> a &: b) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> a <: b) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> a =: b) (self (n / 2)) (self (n / 2));
          ])

let loop_counter = ref 0

let gen_stmts : Ir.Ast.stmt list QCheck.Gen.t =
  let open QCheck.Gen in
  let assign = map2 (fun x e -> x <-- e) (oneofl vars) gen_expr in
  let havoc_ =
    map3
      (fun x e (h : Ir.Hashes.t) -> havoc x ~input:e ~hash:h.name)
      (oneofl vars) gen_expr (oneofl Ir.Hashes.all)
  in
  let simple = map (fun s -> [ s ]) (oneof [ assign; havoc_ ]) in
  let rec block depth : Ir.Ast.stmt list QCheck.Gen.t =
    if depth = 0 then simple
    else
      let alternative =
        oneof
          [
            simple;
            map3
              (fun c a b -> [ if_ c a b ])
              gen_expr (block (depth - 1)) (block (depth - 1));
            (* a loop over a fresh counter, 0..bound, possibly with break *)
            map3
              (fun bound body brk ->
                (* each loop gets its own counter so nesting terminates *)
                incr loop_counter;
                let k = Printf.sprintf "k%d" !loop_counter in
                [
                  k <-- i 0;
                  while_ (v k <: i bound)
                    (body
                    @ (if brk then [ when_ (v k =: i 2) [ break_ ] ] else [])
                    @ [ k <-- v k +: i 1 ]);
                ])
              (int_range 1 6) (block (depth - 1)) bool;
          ]
      in
      map List.concat (list_size (int_range 1 4) alternative)
  in
  map2
    (fun body ret ->
      List.map (fun x -> x <-- i 0) vars @ body @ [ Ir.Dsl.ret ret ])
    (block 2) gen_expr

let print_prog stmts =
  let f = func "main" [ "a0" ] stmts in
  let cfg = Ir.Lower.program (program ~name:"t" ~entry:"main" [ f ]) in
  Format.asprintf "%a" Ir.Cfg.pp cfg

let lowering_agrees =
  QCheck.Test.make ~name:"Lower+Interp+Compile agree with the AST semantics"
    ~count:400
    (QCheck.make ~print:print_prog gen_stmts)
    (fun stmts ->
      let fdef = func "main" [ "a0" ] stmts in
      let expected = ref_run fdef [ 5 ] in
      let prog = Ir.Lower.program (program ~name:"t" ~entry:"main" [ fdef ]) in
      let mem () =
        Ir.Memory.create ~regions:[] ~heap_bytes:4096 ~inject:Fun.id
      in
      let interp =
        Ir.Interp.call prog ~mem:(ref (mem ())) ~hooks:Ir.Interp.no_hooks
          ~budget:2_000_000 "main" [ 5 ]
      in
      let compiled =
        Ir.Compile.call
          (Ir.Compile.lookup (Ir.Compile.program prog) "main")
          ~mem:(Ir.Memory.flat_of_memory (mem ()))
          ~hooks:Ir.Interp.no_hooks ~budget:2_000_000 [| 5 |]
      in
      interp.ret = expected && compiled.ret = expected
      && compiled.instrs = interp.instrs)

let tests = [ QCheck_alcotest.to_alcotest lowering_agrees ]
