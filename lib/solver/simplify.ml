open Ir.Expr

(* 0/1-valued expressions: comparisons, and boolean combinations thereof. *)
let rec is_boolean = function
  | Cmp _ -> true
  | Const (0 | 1) -> true
  | Binop ((And | Or | Xor), a, b) -> is_boolean a && is_boolean b
  | Ite (_, a, b) -> is_boolean a && is_boolean b
  | _ -> false

let rec expr (e : sexpr) : sexpr =
  match e with
  | Const _ | Leaf _ -> e
  | Unop (op, a) -> (
      match expr a with
      | Const c -> Const (apply_unop op c)
      | Unop (Neg, inner) when op = Neg -> inner
      | Unop (Bnot, inner) when op = Bnot -> inner
      | a' -> Unop (op, a'))
  | Binop (op, a, b) -> binop op (expr a) (expr b)
  | Cmp (op, a, b) -> cmp op (expr a) (expr b)
  | Ite (c, a, b) -> (
      match expr c with
      | Const 0 -> expr b
      | Const _ -> expr a
      | c' ->
          let a' = expr a and b' = expr b in
          if a' = b' then a' else Ite (c', a', b'))

and binop op a b : sexpr =
  match (op, a, b) with
  | _, Const x, Const y when not ((op = Div || op = Rem) && y = 0) ->
      Const (apply_binop op x y)
  | Add, x, Const 0 | Add, Const 0, x -> x
  | Sub, x, Const 0 -> x
  | Sub, x, y when x = y -> Const 0
  | Mul, _, Const 0 | Mul, Const 0, _ -> Const 0
  | Mul, x, Const 1 | Mul, Const 1, x -> x
  | Div, x, Const 1 -> x
  | And, _, Const 0 | And, Const 0, _ -> Const 0
  | And, x, y when x = y -> x
  | Or, x, Const 0 | Or, Const 0, x -> x
  | Or, x, y when x = y -> x
  | Xor, x, y when x = y -> Const 0
  | Xor, x, Const 0 | Xor, Const 0, x -> x
  | Shl, x, Const 0 | Lshr, x, Const 0 -> x
  | Shl, Const 0, _ | Lshr, Const 0, _ -> Const 0
  (* Collapse mask chains: (x & m1) & m2 = x & (m1 & m2). *)
  | And, Binop (And, x, Const m1), Const m2 -> binop And x (Const (m1 land m2))
  (* Reassociate constant addition: (x + k1) + k2 = x + (k1+k2). *)
  | Add, Binop (Add, x, Const k1), Const k2 -> binop Add x (Const (k1 + k2))
  | Add, Const k1, Binop (Add, x, Const k2) -> binop Add x (Const (k1 + k2))
  | _ -> Binop (op, a, b)

and cmp op a b : sexpr =
  match (op, a, b) with
  | _, Const x, Const y -> Const (if apply_cmp op x y then 1 else 0)
  | Eq, x, y when x = y -> Const 1
  | (Ne | Lt), x, y when x = y -> Const 0
  | Le, x, y when x = y -> Const 1
  (* (bool == 0) is logical negation; push it inward. *)
  | Eq, inner, Const 0 when is_boolean inner -> negate_simplified inner
  | Eq, Const 0, inner when is_boolean inner -> negate_simplified inner
  | Ne, inner, Const 0 when is_boolean inner -> inner
  | Ne, Const 0, inner when is_boolean inner -> inner
  (* Normalize constants to the right for Eq/Ne. *)
  | (Eq | Ne), Const c, x -> Cmp (op, x, Const c)
  | _ -> Cmp (op, a, b)

(* Negation of an already-simplified boolean expression. *)
and negate_simplified (e : sexpr) : sexpr =
  match e with
  | Const 0 -> Const 1
  | Const _ -> Const 0
  (* [cmp] leaves [b == 0] unrewritten only for a non-comparison boolean
     [b]; its negation is [b] itself, as [cmp Ne b (Const 0)] would give. *)
  | Cmp (Eq, b, Const 0) when is_boolean b -> b
  | Cmp (Eq, a, b) -> Cmp (Ne, a, b)
  | Cmp (Ne, a, b) -> Cmp (Eq, a, b)
  | Cmp (Lt, a, b) -> Cmp (Le, b, a)
  | Cmp (Le, a, b) -> Cmp (Lt, b, a)
  | other -> Cmp (Eq, other, Const 0)

let negate e = negate_simplified (expr e)
