type field = Src_ip | Dst_ip | Proto | Src_port | Dst_port

let field_width = function
  | Src_ip | Dst_ip -> 32
  | Proto -> 8
  | Src_port | Dst_port -> 16

let all_fields = [ Src_ip; Dst_ip; Proto; Src_port; Dst_port ]

let field_name = function
  | Src_ip -> "src_ip"
  | Dst_ip -> "dst_ip"
  | Proto -> "proto"
  | Src_port -> "src_port"
  | Dst_port -> "dst_port"

let field_of_name name =
  match List.find_opt (fun f -> field_name f = name) all_fields with
  | Some f -> f
  | None -> invalid_arg ("Expr.field_of_name: not a packet field: " ^ name)

type sym =
  | Pkt of { pkt : int; field : field }
  | Fresh of { id : int; label : string }

(* Fresh symbols carry their width in a side table so that the variant stays
   comparable with the structural [compare].  Counter and table are
   domain-local: concurrent analyses on {!Util.Pool} workers each allocate
   their own dense id sequence (ids never cross domains — a Fresh sym is
   only ever compared against syms from the same analysis), which keeps the
   sequence independent of how analyses are scheduled. *)
type fresh_state = {
  mutable next_fresh : int;
  widths : (int, int) Hashtbl.t;
}

let fresh_key : fresh_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { next_fresh = 0; widths = Hashtbl.create 64 })

let reset_fresh () =
  let fs = Domain.DLS.get fresh_key in
  fs.next_fresh <- 0;
  Hashtbl.reset fs.widths

let fresh ~label ~width =
  let fs = Domain.DLS.get fresh_key in
  fs.next_fresh <- fs.next_fresh + 1;
  let id = fs.next_fresh in
  Hashtbl.replace fs.widths id width;
  Fresh { id; label }

let sym_width = function
  | Pkt { field; _ } -> field_width field
  | Fresh { id; _ } -> (
      try Hashtbl.find (Domain.DLS.get fresh_key).widths id
      with Not_found -> 62)

let pp_sym ppf = function
  | Pkt { pkt; field } -> Format.fprintf ppf "pkt%d.%s" pkt (field_name field)
  | Fresh { id; label } -> Format.fprintf ppf "%s#%d" label id

let compare_sym = compare

type unop = Neg | Bnot
type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Lshr
type cmp = Eq | Ne | Lt | Le

type 'a t =
  | Const of int
  | Leaf of 'a
  | Unop of unop * 'a t
  | Binop of binop * 'a t * 'a t
  | Cmp of cmp * 'a t * 'a t
  | Ite of 'a t * 'a t * 'a t

let apply_unop op v = match op with Neg -> -v | Bnot -> lnot v

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Lshr -> a lsr b

let apply_cmp op a b =
  match op with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b

let rec eval ~leaf = function
  | Const c -> c
  | Leaf x -> leaf x
  | Unop (op, e) -> apply_unop op (eval ~leaf e)
  | Binop (op, a, b) -> apply_binop op (eval ~leaf a) (eval ~leaf b)
  | Cmp (op, a, b) -> if apply_cmp op (eval ~leaf a) (eval ~leaf b) then 1 else 0
  | Ite (c, a, b) -> if eval ~leaf c <> 0 then eval ~leaf a else eval ~leaf b

let rec subst f = function
  | Const c -> Const c
  | Leaf x -> f x
  | Unop (op, e) -> Unop (op, subst f e)
  | Binop (op, a, b) -> Binop (op, subst f a, subst f b)
  | Cmp (op, a, b) -> Cmp (op, subst f a, subst f b)
  | Ite (c, a, b) -> Ite (subst f c, subst f a, subst f b)

let rec iter_leaves f = function
  | Const _ -> ()
  | Leaf x -> f x
  | Unop (_, e) -> iter_leaves f e
  | Binop (_, a, b) | Cmp (_, a, b) ->
      iter_leaves f a;
      iter_leaves f b
  | Ite (c, a, b) ->
      iter_leaves f c;
      iter_leaves f a;
      iter_leaves f b

let rec fold_leaves f acc = function
  | Const _ -> acc
  | Leaf x -> f acc x
  | Unop (_, e) -> fold_leaves f acc e
  | Binop (_, a, b) | Cmp (_, a, b) -> fold_leaves f (fold_leaves f acc a) b
  | Ite (c, a, b) ->
      fold_leaves f (fold_leaves f (fold_leaves f acc c) a) b

let rec size = function
  | Const _ | Leaf _ -> 1
  | Unop (_, e) -> 1 + size e
  | Binop (_, a, b) | Cmp (_, a, b) -> 1 + size a + size b
  | Ite (c, a, b) -> 1 + size c + size a + size b

let rec ops = function
  | Const _ | Leaf _ -> 0
  | Unop (_, e) -> 1 + ops e
  | Binop (_, a, b) | Cmp (_, a, b) -> 1 + ops a + ops b
  | Ite (c, a, b) -> 1 + ops c + ops a + ops b

let unop_name = function Neg -> "-" | Bnot -> "~"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Lshr -> ">>"

let cmp_name = function Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<="

let rec pp pp_leaf ppf = function
  | Const c ->
      if c > 0xffff then Format.fprintf ppf "0x%x" c
      else Format.fprintf ppf "%d" c
  | Leaf x -> pp_leaf ppf x
  | Unop (op, e) -> Format.fprintf ppf "%s(%a)" (unop_name op) (pp pp_leaf) e
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" (pp pp_leaf) a (binop_name op)
        (pp pp_leaf) b
  | Cmp (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" (pp pp_leaf) a (cmp_name op) (pp pp_leaf)
        b
  | Ite (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" (pp pp_leaf) c (pp pp_leaf) a
        (pp pp_leaf) b

let to_string pp_leaf e = Format.asprintf "%a" (pp pp_leaf) e

type pexpr = string t
type sexpr = sym t

let equal_sexpr (a : sexpr) (b : sexpr) = a = b
let pp_sexpr ppf (e : sexpr) = pp pp_sym ppf e
