open Ir.Expr

module SymMap = Map.Make (struct
  type t = sym

  let compare = compare_sym
end)

module Model = struct
  type t = int SymMap.t

  let empty = SymMap.empty
  let find m s = SymMap.find_opt s m
  let get m s = match SymMap.find_opt s m with Some v -> v | None -> 0
  let add = SymMap.add
  let of_list l = List.fold_left (fun m (s, v) -> SymMap.add s v m) empty l
  let eval m e = eval ~leaf:(get m) e

  let pp ppf m =
    SymMap.iter (fun s v -> Format.fprintf ppf "%a = %d@ " pp_sym s v) m
end

type verdict = Sat of Model.t | Unsat | Unknown

let check m cs =
  try List.for_all (fun c -> Model.eval m c <> 0) cs
  with Division_by_zero -> false

let syms_of cs =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  List.iter
    (iter_leaves (fun s ->
         if not (Hashtbl.mem seen s) then begin
           Hashtbl.add seen s ();
           acc := s :: !acc
         end))
    cs;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Propagation: turn constraints into per-symbol knowledge.            *)
(* ------------------------------------------------------------------ *)

exception Contradiction

type info = {
  known_mask : int;  (* bits whose value is forced *)
  known_value : int;  (* value of those bits; subset of known_mask *)
  dom : Domain.t;  (* interval knowledge *)
  stamp : int;  (* store epoch of the last change; 0 if never changed *)
}

(* A constraint we could not decompose.  [settled] is the store epoch at
   which an arm of [assert_true] that only reads the store parked it, or -1
   when it came from anywhere else (see [propagate_rounds]). *)
type residual = { c : sexpr; settled : int }

type store = {
  mutable infos : info SymMap.t;
  mutable residual : residual list;  (* newest first *)
  mutable changed : bool;
  mutable epoch : int;  (* number of [set_info] calls so far *)
}

let new_store infos = { infos; residual = []; changed = false; epoch = 0 }

let width_mask w = if w >= 62 then -1 else (1 lsl w) - 1

let initial_info s =
  let w = sym_width s in
  { known_mask = 0; known_value = 0; dom = Domain.of_width w; stamp = 0 }

let get_info st s =
  match SymMap.find_opt s st.infos with
  | Some i -> i
  | None -> initial_info s

let set_info st s i =
  st.epoch <- st.epoch + 1;
  st.infos <- SymMap.add s { i with stamp = st.epoch } st.infos;
  st.changed <- true

let set_bits st s ~mask ~value =
  let w = sym_width s in
  let wm = width_mask w in
  if value land lnot mask <> 0 then raise Contradiction;
  (* Forcing bits beyond the symbol's width to 1 is impossible. *)
  if value land lnot wm <> 0 then raise Contradiction;
  let mask = mask land wm in
  let value = value land wm in
  let i = get_info st s in
  let overlap = i.known_mask land mask in
  if i.known_value land overlap <> value land overlap then raise Contradiction;
  let known_mask = i.known_mask lor mask in
  let known_value = i.known_value lor value in
  if known_mask <> i.known_mask || known_value <> i.known_value then
    set_info st s { i with known_mask; known_value }

let refine_dom st s refine =
  let i = get_info st s in
  match refine i.dom with
  | None -> raise Contradiction
  | Some d -> if d <> i.dom then set_info st s { i with dom = d }

(* Syntactically non-negative: constants >= 0, symbols (valued in
   [0, 2^width)), comparisons, and operators that keep non-negative operands
   non-negative (values stay far below the native int's range, as the
   interval refinements below assume too). *)
let rec nonneg (e : sexpr) =
  match e with
  | Const c -> c >= 0
  | Leaf _ | Cmp _ -> true
  | Binop ((Add | Mul | Div | Rem | And | Or | Xor | Shl | Lshr), a, b)
  | Ite (_, a, b) ->
      nonneg a && nonneg b
  | Unop _ | Binop (Sub, _, _) -> false

(* assert e = c, decomposing through invertible operations *)
let rec propagate_eq st (e : sexpr) c =
  match e with
  | Const k -> if k <> c then raise Contradiction
  | Leaf s ->
      let w = sym_width s in
      if c land lnot (width_mask w) <> 0 || c < 0 then raise Contradiction;
      set_bits st s ~mask:(width_mask w) ~value:c;
      refine_dom st s (fun d -> Domain.meet d (Domain.const c))
  | Binop (Add, x, Const k) | Binop (Add, Const k, x) ->
      propagate_eq st x (c - k)
  | Binop (Sub, x, Const k) -> propagate_eq st x (c + k)
  | Binop (Sub, Const k, x) -> propagate_eq st x (k - c)
  | Binop (Mul, x, Const k) when k > 0 ->
      if c mod k = 0 then propagate_eq st x (c / k) else raise Contradiction
  | Binop (Mul, Const k, x) when k > 0 ->
      if c mod k = 0 then propagate_eq st x (c / k) else raise Contradiction
  | Binop (Shl, x, Const k) when k >= 0 ->
      if c land ((1 lsl k) - 1) <> 0 then raise Contradiction
      else propagate_eq st x (c asr k)
  | Binop (Lshr, x, Const k) when k >= 0 ->
      set_bits_expr st x ~mask:(lnot ((1 lsl k) - 1)) ~value:(c lsl k)
  | Binop (And, x, Const m) | Binop (And, Const m, x) ->
      if c land lnot m <> 0 then raise Contradiction
      else set_bits_expr st x ~mask:m ~value:c
  | Binop (Xor, x, Const m) | Binop (Xor, Const m, x) ->
      propagate_eq st x (c lxor m)
  | Binop (Or, x, Const m) | Binop (Or, Const m, x) ->
      if c land m <> m then raise Contradiction
      else set_bits_expr st x ~mask:(lnot m) ~value:(c land lnot m)
  | Binop ((Or | Xor), a, b) ->
      (* Field packing: disjoint possible-bits lets us split the equality
         (xor coincides with or on disjoint bits). *)
      let ma = possible_mask st a and mb = possible_mask st b in
      if ma land mb = 0 then begin
        if c land lnot (ma lor mb) <> 0 then raise Contradiction;
        propagate_eq st a (c land ma);
        propagate_eq st b (c land mb)
      end
      else residual st (Cmp (Eq, e, Const c))
  | Binop (Rem, x, Const m) when m > 0 ->
      if c < 0 || c >= m then raise Contradiction
      else refine_congruence st x ~modulus:m ~rem:c
  | Cmp _ ->
      if c = 1 then assert_true st e
      else if c = 0 then assert_true st (Simplify.negate e)
      else raise Contradiction
  | Ite (cond, Const a, Const b) ->
      let can_a = a = c and can_b = b = c in
      if can_a && not can_b then assert_true st cond
      else if can_b && not can_a then assert_true st (Simplify.negate cond)
      else if not (can_a || can_b) then raise Contradiction
  | _ -> residual st (Cmp (Eq, e, Const c))

(* assert (e & mask) has the given bit values *)
and set_bits_expr st (e : sexpr) ~mask ~value =
  let value = value land mask in
  match e with
  | Leaf s -> set_bits st s ~mask ~value
  | Const k -> if k land mask <> value then raise Contradiction
  | Binop (Shl, x, Const k) when k >= 0 ->
      if value land ((1 lsl k) - 1) <> 0 then raise Contradiction;
      set_bits_expr st x ~mask:(mask asr k) ~value:(value asr k)
  | Binop (Lshr, x, Const k) when k >= 0 ->
      set_bits_expr st x ~mask:(mask lsl k) ~value:(value lsl k)
  | Binop (And, x, Const m) | Binop (And, Const m, x) ->
      (* Result bits where m is 0 are 0. *)
      if value land mask land lnot m <> 0 then raise Contradiction;
      set_bits_expr st x ~mask:(mask land m) ~value:(value land m)
  | Binop (Xor, x, Const k) | Binop (Xor, Const k, x) ->
      set_bits_expr st x ~mask ~value:((value lxor k) land mask)
  | Binop (Or, x, Const k) | Binop (Or, Const k, x) ->
      (* Result bits where k is 1 are 1. *)
      if lnot value land mask land k <> 0 then raise Contradiction;
      set_bits_expr st x ~mask:(mask land lnot k) ~value:(value land lnot k)
  | Binop (Add, x, Const k) when mask land (mask + 1) = 0 && mask > 0 ->
      (* Low-contiguous mask: (x + k) mod 2^n is known — a congruence. *)
      let modulus = mask + 1 in
      refine_congruence st x ~modulus
        ~rem:(((value - k) mod modulus + modulus) mod modulus)
  | _ -> residual st (Cmp (Eq, Binop (And, e, Const mask), Const value))

(* assert e ≡ rem (mod modulus), pushing through +/- constants *)
and refine_congruence st (e : sexpr) ~modulus ~rem =
  let norm v = ((v mod modulus) + modulus) mod modulus in
  match e with
  | Const k -> if norm k <> rem then raise Contradiction
  | Leaf s ->
      let w = sym_width s in
      let wm = width_mask w in
      if rem > wm then raise Contradiction;
      refine_dom st s (fun d ->
          Domain.meet d (Domain.make ~lo:rem ~hi:(max rem wm) ~step:modulus))
  | Binop (Add, x, Const k) | Binop (Add, Const k, x) ->
      refine_congruence st x ~modulus ~rem:(norm (rem - k))
  | Binop (Sub, x, Const k) -> refine_congruence st x ~modulus ~rem:(norm (rem + k))
  | Binop (Mul, x, Const k) when k > 0 && modulus mod k = 0 ->
      if rem mod k <> 0 then raise Contradiction
      else refine_congruence st x ~modulus:(modulus / k) ~rem:(rem / k)
  | _ -> residual st (Cmp (Eq, Binop (Rem, e, Const modulus), Const rem))

and assert_true st (e : sexpr) =
  match e with
  | Const 0 -> raise Contradiction
  | Const _ -> ()
  | Cmp (Eq, x, Const c) | Cmp (Eq, Const c, x) -> propagate_eq st x c
  | Cmp (Le, x, Const c) -> refine_expr_le st x c
  | Cmp (Lt, x, Const c) -> refine_expr_le st x (c - 1)
  | Cmp (Le, Const c, x) -> refine_expr_ge st x c
  | Cmp (Lt, Const c, x) -> refine_expr_ge st x (c + 1)
  | Binop (And, a, b) when Simplify.is_boolean a && Simplify.is_boolean b ->
      assert_true st a;
      assert_true st b
  | Cmp (Lt, a, b) ->
      (* Interval check on fully symbolic comparisons: prune impossible
         orderings (e.g. a tagged return key below an untagged forward
         key), drop trivially true ones. *)
      let da = abstract_eval st a and db = abstract_eval st b in
      if (da : Domain.t).lo >= (db : Domain.t).hi then raise Contradiction
      else if (da : Domain.t).hi >= (db : Domain.t).lo then park st e
  | Cmp (Le, a, b) ->
      let da = abstract_eval st a and db = abstract_eval st b in
      if (da : Domain.t).lo > (db : Domain.t).hi then raise Contradiction
      else if (da : Domain.t).hi > (db : Domain.t).lo then park st e
  | _ -> park st e

(* Interval refinement through shifted/offset chains. *)
and refine_expr_le st (e : sexpr) c =
  match e with
  | Leaf s -> refine_dom st s (fun d -> Domain.refine_le d c)
  | Const k -> if k > c then raise Contradiction
  | Binop (Add, x, Const k) | Binop (Add, Const k, x) ->
      refine_expr_le st x (c - k)
  | Binop (Sub, x, Const k) -> refine_expr_le st x (c + k)
  | Binop (Mul, x, Const k) when k > 0 ->
      refine_expr_le st x (if c < 0 then -(((-c) + k - 1) / k) else c / k)
  | Binop (Mul, Const k, x) when k > 0 ->
      refine_expr_le st x (if c < 0 then -(((-c) + k - 1) / k) else c / k)
  | Binop (Shl, x, Const k) when k >= 0 -> refine_expr_le st x (c asr k)
  | Binop (Or, a, b) ->
      (* Necessary, not sufficient: a <= a|b when b >= 0, and symmetrically
         (a negative b makes a|b negative).  Refine each side the other's
         sign allows, and keep the constraint for final checking. *)
      if nonneg b then refine_expr_le st a c;
      if nonneg a then refine_expr_le st b c;
      residual st (Cmp (Le, e, Const c))
  | _ -> residual st (Cmp (Le, e, Const c))

and refine_expr_ge st (e : sexpr) c =
  match e with
  | Leaf s -> refine_dom st s (fun d -> Domain.refine_ge d c)
  | Const k -> if k < c then raise Contradiction
  | Binop (Add, x, Const k) | Binop (Add, Const k, x) ->
      refine_expr_ge st x (c - k)
  | Binop (Sub, x, Const k) -> refine_expr_ge st x (c + k)
  | Binop (Mul, x, Const k) when k > 0 -> refine_expr_ge st x ((c + k - 1) / k)
  | Binop (Mul, Const k, x) when k > 0 -> refine_expr_ge st x ((c + k - 1) / k)
  | Binop (Shl, x, Const k) when k >= 0 ->
      refine_expr_ge st x ((c + (1 lsl k) - 1) asr k)
  | Binop (Or, a, b) ->
      (* a|b <= a + b when b >= 0, so a >= c - max(b), and symmetrically.
         A possibly negative b has no maximum (its mask reads -1). *)
      let ma = possible_mask st a and mb = possible_mask st b in
      if nonneg b && c - mb > 0 then refine_expr_ge st a (c - mb);
      if nonneg a && c - ma > 0 then refine_expr_ge st b (c - ma);
      residual st (Cmp (Le, Const c, e))
  | _ -> residual st (Cmp (Le, Const c, e))

and residual st c = st.residual <- { c; settled = -1 } :: st.residual

(* Parks [c] from an arm that only reads the store: asserting [c] again
   takes the same arm, which depends on nothing but the infos of [c]'s
   symbols. *)
and park st c = st.residual <- { c; settled = st.epoch } :: st.residual

(* Mask of bits an expression can possibly have set; used to recognize
   disjoint field packing.  Structural on the bit-manipulation operators
   (shifts keep field masks exact, which is what packing needs), falling
   back to the abstract domain elsewhere. *)
and possible_mask st e =
  let rec mask_up m v = if m >= v then m else mask_up ((m lsl 1) lor 1) v in
  match e with
  | Const c -> if c >= 0 then c else -1
  | Leaf s -> width_mask (sym_width s)
  | Binop (Shl, x, Const k) when k >= 0 -> possible_mask st x lsl k
  | Binop (Lshr, x, Const k) when k >= 0 -> possible_mask st x lsr k
  | Binop (And, a, b) -> possible_mask st a land possible_mask st b
  | Binop ((Or | Xor), a, b) -> possible_mask st a lor possible_mask st b
  | Cmp _ -> 1
  | _ -> (
      let d = abstract_eval st e in
      match Domain.is_const d with
      | Some c when c >= 0 -> c
      | _ ->
          let hi = (d : Domain.t).hi in
          if hi < 0 then -1
          else if (d : Domain.t).lo < 0 then -1
          else mask_up 0 hi)

(* Abstract evaluation of an expression under current symbol knowledge. *)
and abstract_eval st (e : sexpr) : Domain.t =
  match e with
  | Const c -> Domain.const c
  | Leaf s -> sym_domain st s
  | Unop (op, a) -> Domain.unop op (abstract_eval st a)
  | Binop (op, a, b) -> Domain.binop op (abstract_eval st a) (abstract_eval st b)
  | Cmp _ -> Domain.cmp
  | Ite (_, a, b) -> Domain.join (abstract_eval st a) (abstract_eval st b)

and sym_domain st s =
  let i = get_info st s in
  let w = sym_width s in
  let wm = width_mask w in
  let from_bits =
    if i.known_mask = wm then Domain.const i.known_value
    else
      (* Contiguous high-bit knowledge gives a tight interval; contiguous
         low-bit knowledge gives a stride. *)
      let k =
        (* number of trailing free bits *)
        let rec count n m = if m land 1 = 1 then n else if m = 0 then n else count (n + 1) (m lsr 1) in
        if i.known_mask = 0 then 0 else count 0 (i.known_mask land wm)
      in
      if i.known_mask <> 0 && i.known_mask land wm = lnot ((1 lsl k) - 1) land wm
      then
        (* High bits known: values in [v, v + 2^k - 1]. *)
        Domain.make ~lo:i.known_value ~hi:(i.known_value + (1 lsl k) - 1) ~step:1
      else
        let low_known =
          (* number of contiguous known low bits *)
          let rec count n m = if m land 1 = 0 then n else count (n + 1) (m lsr 1) in
          count 0 i.known_mask
        in
        if low_known > 0 then
          let stride = 1 lsl low_known in
          let base = i.known_value land (stride - 1) in
          Domain.make ~lo:base ~hi:(wm land lnot (stride - 1) lor base) ~step:stride
        else Domain.of_width w
  in
  match Domain.meet from_bits i.dom with Some d -> d | None -> raise Contradiction

(* ------------------------------------------------------------------ *)
(* Pipeline driver                                                     *)
(* ------------------------------------------------------------------ *)

let fully_known st s =
  let i = get_info st s in
  i.known_mask = width_mask (sym_width s)

(* ------------------------------------------------------------------ *)
(* Overflow guard                                                      *)
(* ------------------------------------------------------------------ *)

(* The decomposition rules above invert arithmetic assuming it is exact,
   and the interval domain saturates its bounds at ±2^55 — but [eval]
   computes in native OCaml integers.  An expression that wraps around
   (or outgrows the domain's clamp window) satisfies equalities that exact
   reasoning "refutes", so feeding it to the propagator can yield an
   unsound Unsat.  [decomposable] over-approximates the range of every
   subexpression in floats; constraints that could leave the exact window
   anywhere are kept whole as residuals — the search phase and [check]
   share [eval]'s native semantics — trading a possible Unknown for a
   wrong verdict.  Real NF path constraints (packed flow keys, table
   indices, hashes) stay far below the 2^54 window, so they are
   unaffected. *)

let exact_window = 2. ** 54.

let decomposable (c0 : sexpr) =
  let ok = ref true in
  let flag ((lo, hi) as r) =
    if not (lo >= -.exact_window && hi <= exact_window) then ok := false;
    r
  in
  let rec range (e : sexpr) : float * float =
    match e with
    | Const c -> (float_of_int c, float_of_int c)
    | Leaf s -> (0., (2. ** float_of_int (min (sym_width s) 62)) -. 1.)
    | Cmp (_, a, b) ->
        ignore (range a : float * float);
        ignore (range b : float * float);
        (0., 1.)
    | Ite (c, a, b) ->
        ignore (range c : float * float);
        let la, ha = range a and lb, hb = range b in
        (Float.min la lb, Float.max ha hb)
    | Unop (Neg, a) ->
        let lo, hi = range a in
        flag (-.hi, -.lo)
    | Unop (Bnot, a) ->
        let lo, hi = range a in
        flag (-.hi -. 1., -.lo -. 1.)
    | Binop (op, a, b) ->
        let ((la, ha) as ra) = range a and ((lb, hb) as rb) = range b in
        let mag (lo, hi) = Float.max (Float.abs lo) (Float.abs hi) in
        flag
          (match op with
          | Add -> (la +. lb, ha +. hb)
          | Sub -> (la -. hb, ha -. lb)
          | Mul ->
              let ps = [ la *. lb; la *. hb; ha *. lb; ha *. hb ] in
              ( List.fold_left Float.min infinity ps,
                List.fold_left Float.max neg_infinity ps )
          | Div -> (-.(mag ra), mag ra)
          | Rem ->
              let m = Float.min (mag ra) (mag rb) in
              (-.m, m)
          | And | Or | Xor ->
              (* two's complement: the result stays within one bit of the
                 wider operand *)
              let m = (2. *. Float.max (mag ra) (mag rb)) +. 1. in
              if la >= 0. && lb >= 0. then (0., m) else (-.m, m)
          | Shl -> (
              match b with
              | Const k when k >= 0 && k < 62 ->
                  let f = 2. ** float_of_int k in
                  (la *. f, ha *. f)
              | _ -> (neg_infinity, infinity))
          | Lshr ->
              if la >= 0. then
                match b with
                | Const k when k >= 0 -> (0., ha /. (2. ** float_of_int k))
                | _ -> (0., ha)
              else (neg_infinity, infinity))
  in
  ignore (range c0 : float * float);
  !ok

(* A constraint simplified and run through the overflow guard, once. *)
type prepared = { expr : sexpr; decomposes : bool }

let prepare c =
  let expr = Simplify.expr c in
  { expr; decomposes = decomposable expr }

let prepared_expr p = p.expr

let build_store ps =
  let st = new_store SymMap.empty in
  List.iter
    (fun p -> if p.decomposes then assert_true st p.expr else residual st p.expr)
    ps;
  st

(* A settled residual none of whose symbols changed since it was parked and
   none of which is fully known: a round would substitute nothing into it,
   simplify it to itself (the output of [Simplify.expr] and every subterm of
   it are fixpoints), and [assert_true] would take the same arm on the same
   infos and park it again. *)
let rec untouched st at (e : sexpr) =
  match e with
  | Const _ -> true
  | Leaf s -> (
      match SymMap.find_opt s st.infos with
      | Some i -> i.stamp <= at && i.known_mask <> width_mask (sym_width s)
      | None -> width_mask (sym_width s) <> 0)
  | Unop (_, a) -> untouched st at a
  | Binop (_, a, b) | Cmp (_, a, b) -> untouched st at a && untouched st at b
  | Ite (c, a, b) -> untouched st at c && untouched st at a && untouched st at b

(* Iterate: substitute fully-determined symbols into residual constraints and
   re-propagate, so chains like "h = H(k); idx = h & m; idx = 5" resolve even
   when information arrives out of order.  A settled residual that nothing
   touched since it was parked is pushed back as it is: re-asserting it
   would change nothing (see [untouched]). *)
let propagate_rounds ps =
  let st = build_store ps in
  let round () =
    let bound s =
      if fully_known st s then Some ((get_info st s).known_value) else None
    in
    let substitute c =
      Simplify.expr
        (subst
           (fun s ->
             match bound s with Some v -> Const v | None -> Leaf s)
           c)
    in
    let res = List.rev st.residual in
    st.residual <- [];
    st.changed <- false;
    let progressed = ref false in
    List.iter
      (fun r ->
        if r.settled >= 0 && untouched st r.settled r.c then
          st.residual <- r :: st.residual
        else
          let c' = substitute r.c in
          if c' <> r.c then progressed := true;
          (* Substitution shrinks value ranges, so a residual parked by the
             overflow guard may become decomposable once its symbols pin. *)
          if decomposable c' then assert_true st c' else residual st c')
      res;
    st.changed || !progressed
  in
  let rec loop n = if n > 0 && round () then loop (n - 1) in
  loop 8;
  st

(* A value for [s] consistent with its known bits and, when possible, its
   interval domain. [zero_free] selects the deterministic all-zero-free-bits
   candidate used for the first attempt. *)
let sample_value st rng ~zero_free s =
  let i = get_info st s in
  let w = sym_width s in
  let wm = width_mask w in
  let free = lnot i.known_mask land wm in
  let candidate bits = i.known_value lor (bits land free) in
  if zero_free then
    let v = candidate 0 in
    if Domain.mem i.dom v then v
    else
      (* All-zero free bits fall outside the interval; aim for its floor. *)
      candidate (i.dom : Domain.t).lo
  else
    let rec try_random k =
      if k = 0 then
        candidate (Domain.sample i.dom rng)
      else
        let v = candidate (Int64.to_int (Int64.logand (Util.Rng.bits64 rng) (Int64.of_int max_int))) in
        if Domain.mem i.dom v then v else try_random (k - 1)
    in
    try_random 8

let model_of_tbl tbl =
  Hashtbl.fold (fun s v m -> Model.add s v m) tbl Model.empty

(* ------------------------------------------------------------------ *)
(* Ordering pre-phase                                                   *)
(* ------------------------------------------------------------------ *)

(* Path constraints from comparison-based containers (trees) are long chains
   of strict orderings between packed flow keys.  Local search converges
   poorly on total orders, but the structure is trivial globally: treat each
   distinct compared expression as a node, topologically sort the DAG, assign
   monotone values within each node's abstract domain, and invert each
   assignment into its (per-packet, disjoint) symbols. *)
(* The comparison graph: distinct non-constant compared expressions as
   nodes, one edge per Lt (strict) / Le residual. *)
let comparison_graph cs =
  let nodes = Hashtbl.create 16 in
  let node_list = ref [] in
  let node_id e =
    match Hashtbl.find_opt nodes e with
    | Some id -> id
    | None ->
        let id = Hashtbl.length nodes in
        Hashtbl.add nodes e id;
        node_list := e :: !node_list;
        id
  in
  let edges = ref [] in
  List.iter
    (fun c ->
      match c with
      | Cmp (Lt, a, b) -> (
          match (a, b) with
          | Const _, _ | _, Const _ -> ()
          | _ when a = b -> ()
          | _ -> edges := (node_id a, node_id b, 1) :: !edges)
      | Cmp (Le, a, b) -> (
          match (a, b) with
          | Const _, _ | _, Const _ -> ()
          | _ when a = b -> ()
          | _ -> edges := (node_id a, node_id b, 0) :: !edges)
      | _ -> ())
    cs;
  (Array.of_list (List.rev !node_list), !edges)

(* Kahn's algorithm; [None] when a cycle remains. *)
let topo_order n edges =
  let indeg = Array.make (max n 1) 0 in
  let succ = Array.make (max n 1) [] in
  List.iter
    (fun (a, b, strict) ->
      indeg.(b) <- indeg.(b) + 1;
      succ.(a) <- (b, strict) :: succ.(a))
    edges;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if i < n && d = 0 then Queue.push i queue) indeg;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    incr seen;
    List.iter
      (fun (v, _) ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.push v queue)
      succ.(u)
  done;
  if !seen = n then Some (List.rev !order, succ) else None

(* A cycle containing a strict edge is a genuine contradiction: it entails
   e < e.  This catches "the lookup went left of a node, the insert went
   right of the same node" inconsistencies that bit/interval propagation
   cannot see. *)
let order_contradiction cs =
  let exprs, edges = comparison_graph cs in
  let n = Array.length exprs in
  if n = 0 || edges = [] then false
  else
    match topo_order n edges with
    | Some _ -> false
    | None -> (
        (* A cycle exists; decide whether some cycle is strict by checking
           the strongly-connected components. Simple O(E·V) pass is fine at
           these sizes: a strict edge inside an SCC means contradiction. *)
        let reachable =
          (* reach.(u) = set of nodes reachable from u, as bool array *)
          let succ = Array.make n [] in
          List.iter (fun (a, b, _) -> succ.(a) <- b :: succ.(a)) edges;
          Array.init n (fun u ->
              let seen = Array.make n false in
              let rec dfs v =
                List.iter
                  (fun w ->
                    if not seen.(w) then begin
                      seen.(w) <- true;
                      dfs w
                    end)
                  succ.(v)
              in
              dfs u;
              seen)
        in
        match
          List.find_opt
            (fun (a, b, strict) -> strict = 1 && reachable.(b).(a))
            edges
        with
        | Some _ -> true
        | None -> false)

let order_phase st cs tbl rng =
  let exprs, edges = comparison_graph cs in
  let n = Array.length exprs in
  if n = 0 || edges = [] then ()
  else begin
    match topo_order n edges with
    | None -> ()
    | Some (order, succ) ->
      let value = Array.make n min_int in
      let minimum = Array.make n min_int in
      List.iter
        (fun u ->
          let e = exprs.(u) in
          let dom = try abstract_eval st e with Contradiction -> Domain.top in
          let lo = (dom : Domain.t).lo and hi = (dom : Domain.t).hi in
          (* Fixed nodes (all symbols already forced) keep their value. *)
          let all_known = List.for_all (fully_known st) (syms_of [ e ]) in
          let v =
            if all_known then
              eval ~leaf:(fun s -> (get_info st s).known_value) e
            else
              (* Leave slack after each node so successors fit. *)
              let base = max lo minimum.(u) in
              min hi (base + Util.Rng.int rng 1024)
          in
          value.(u) <- v;
          List.iter
            (fun (s, strict) -> minimum.(s) <- max minimum.(s) (v + strict))
            succ.(u))
        order;
      (* Invert each node's value into its symbols via a scratch store. *)
      List.iter
        (fun u ->
          let e = exprs.(u) in
          if not (List.for_all (fully_known st) (syms_of [ e ])) then
            let st1 = new_store st.infos in
            match propagate_eq st1 e value.(u) with
            | exception Contradiction -> ()
            | () ->
                List.iter
                  (fun s ->
                    if not (fully_known st s) then
                      let i = get_info st1 s in
                      let w = sym_width s in
                      if i.known_mask = width_mask w then
                        Hashtbl.replace tbl s i.known_value
                      else
                        match Domain.is_const i.dom with
                        | Some v -> Hashtbl.replace tbl s v
                        | None -> ())
                  (syms_of [ e ]))
        order
  end

(* WalkSAT-style completion: start from the deterministic candidate, then
   repeatedly resample one symbol of one violated constraint.  Each
   constraint's symbols are listed once per call, and a step re-evaluates
   only the constraints that mention the resampled symbol (a constraint's
   value depends on nothing else); every rng draw keeps the order and the
   bound it would have if each step re-evaluated every constraint. *)
let complete st cs rng attempts =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s -> Hashtbl.replace tbl s (sample_value st rng ~zero_free:true s))
    (syms_of cs);
  (* Seed comparison chains (tree paths) with a consistent global order. *)
  order_phase st cs tbl rng;
  let cs = Array.of_list cs in
  let syms_at = Array.map (fun c -> syms_of [ c ]) cs in
  (* Symbol -> the indices of the constraints that mention it, ascending. *)
  let uses = Hashtbl.create 32 in
  for i = Array.length cs - 1 downto 0 do
    List.iter
      (fun s ->
        let l = Option.value (Hashtbl.find_opt uses s) ~default:[] in
        Hashtbl.replace uses s (i :: l))
      syms_at.(i)
  done;
  let uses_of s = Option.value (Hashtbl.find_opt uses s) ~default:[] in
  (* Evaluating through the Hashtbl directly avoids rebuilding the map. *)
  let holds c =
    try
      eval ~leaf:(fun s -> match Hashtbl.find_opt tbl s with Some v -> v | None -> 0) c <> 0
    with Division_by_zero -> false
  in
  let satisfied = Array.map holds cs in
  let n_violated = ref 0 in
  Array.iter (fun ok -> if not ok then incr n_violated) satisfied;
  let set s v =
    Hashtbl.replace tbl s v;
    List.iter
      (fun i ->
        let ok = holds cs.(i) in
        if ok <> satisfied.(i) then begin
          satisfied.(i) <- ok;
          n_violated := !n_violated + if ok then -1 else 1
        end)
      (uses_of s)
  in
  (* Index of the [k]-th violated constraint, in list order. *)
  let nth_violated k =
    let rec go i k =
      if satisfied.(i) then go (i + 1) k else if k = 0 then i else go (i + 1) (k - 1)
    in
    go 0 k
  in
  (* Targeted repair: freeze every other symbol at its current value,
     re-propagate the violated constraint for [s] alone, and draw [s] from
     the refined knowledge.  This is what makes packed-field and
     cross-symbol (xor, ordering) equalities solvable — blind resampling of
     a 32-bit field never hits them. *)
  let frozen_except s s' =
    if compare_sym s' s = 0 then Leaf s'
    else Const (match Hashtbl.find_opt tbl s' with Some v -> v | None -> 0)
  in
  let mini_store s = new_store (SymMap.singleton s (get_info st s)) in
  (* Disjunctions have no propagation rule; during repair, committing to a
     random disjunct is a sound heuristic move (the outer loop re-verifies
     everything). *)
  let rec assert_for_repair st1 (c : sexpr) =
    match c with
    | Binop (Or, a, b) when Simplify.is_boolean a && Simplify.is_boolean b ->
        assert_for_repair st1 (if Util.Rng.bool rng then a else b)
    | _ -> assert_true st1 c
  in
  (* Strong repair: freeze everything but [s] and propagate every constraint
     mentioning [s], in list order, so the sample respects all its bounds
     at once (an ordering chain pins a symbol between two neighbours). *)
  let repair_all s =
    let st1 = mini_store s in
    match
      List.iter
        (fun i ->
          assert_for_repair st1 (Simplify.expr (subst (frozen_except s) cs.(i))))
        (uses_of s)
    with
    | exception Contradiction -> None
    | () -> Some (sample_value st1 rng ~zero_free:false s)
  in
  let repair c s =
    let st1 = mini_store s in
    match assert_for_repair st1 (Simplify.expr (subst (frozen_except s) c)) with
    | exception Contradiction -> None
    | () -> Some (sample_value st1 rng ~zero_free:false s)
  in
  let resample_one () =
    let i = nth_violated (Util.Rng.int rng !n_violated) in
    let cs_syms = syms_at.(i) in
    let flexible = List.filter (fun s -> not (fully_known st s)) cs_syms in
    let targets = if flexible = [] then cs_syms else flexible in
    match targets with
    | [] -> ()
    | _ -> (
        let s = List.nth targets (Util.Rng.int rng (List.length targets)) in
        let choice = Util.Rng.int rng 10 in
        let attempt =
          if choice < 5 then repair_all s
          else if choice < 8 then repair cs.(i) s
          else None
        in
        match attempt with
        | Some v -> set s v
        | None -> set s (sample_value st rng ~zero_free:false s))
  in
  let rec walk k =
    if !n_violated = 0 then Some (model_of_tbl tbl)
    else if k = 0 then begin
      Obs.Log.debug "solver: %d violated after search:%t" !n_violated
        (fun () ->
          let vs = List.filteri (fun i _ -> not satisfied.(i)) (Array.to_list cs) in
          String.concat ""
            (List.filteri (fun i _ -> i < 12) vs
            |> List.map (Format.asprintf "@\n  V: %a" Ir.Expr.pp_sexpr)));
      None
    end
    else begin
      resample_one ();
      walk (k - 1)
    end
  in
  walk attempts

(* Telemetry: verdict counters, and how each Unsat was decided (pure
   propagation vs the ordering pre-phase) vs how many calls fell through to
   the WalkSAT-style search.  Counters are module-level so the disabled
   path costs one ref read per bump. *)
let m_verdict_sat = Obs.Metrics.counter "solver.verdict.sat"
let m_verdict_unsat = Obs.Metrics.counter "solver.verdict.unsat"
let m_verdict_unknown = Obs.Metrics.counter "solver.verdict.unknown"
let m_unsat_ordering = Obs.Metrics.counter "solver.unsat.ordering"
let m_unsat_propagation = Obs.Metrics.counter "solver.unsat.propagation"
let m_walksat = Obs.Metrics.counter "solver.walksat.searches"

(* The refutation step: every Unsat the solver returns is decided here, and
   nothing here searches.  [Open] carries the simplified non-trivial
   constraints and their propagated store on to the completion phase. *)
type refutation = Refuted | Open of sexpr list * store

let refute ps =
  if List.exists (fun p -> p.expr = Const 0) ps then Refuted
  else
    let ps = List.filter (fun p -> p.expr <> Const 1) ps in
    let cs = List.map prepared_expr ps in
    if order_contradiction cs then begin
      Obs.Metrics.incr m_unsat_ordering;
      Refuted
    end
    else
      match propagate_rounds ps with
      | exception Contradiction ->
          Obs.Metrics.incr m_unsat_propagation;
          Refuted
      | st -> Open (cs, st)

let sat_inner rng attempts ps =
  match refute ps with
  | Refuted -> Unsat
  | Open ([], _) -> Sat Model.empty
  | Open (cs, st) -> (
      Obs.Metrics.incr m_walksat;
      match complete st cs rng attempts with
      | Some m when check m cs -> Sat m
      | Some _ | None -> Unknown)

(* Charges [f] to the "solver" profiler bucket and counts the verdict
   [counter_of] names for its result. *)
let instrumented counter_of f =
  let v =
    if not (Obs.Profile.enabled ()) then f ()
    else begin
      let t_start = Unix.gettimeofday () in
      let v = f () in
      Obs.Profile.add_timer "solver" (Unix.gettimeofday () -. t_start);
      v
    end
  in
  if Obs.Metrics.active () then Obs.Metrics.incr (counter_of v);
  v

let sat_prepared ?(rng = Util.Rng.create 0x5eed) ?(attempts = 2000) ps =
  instrumented
    (function
      | Sat _ -> m_verdict_sat
      | Unsat -> m_verdict_unsat
      | Unknown -> m_verdict_unknown)
    (fun () -> sat_inner rng attempts ps)

let sat ?rng ?attempts cs = sat_prepared ?rng ?attempts (List.map prepare cs)

(* A model found by search never changes a feasibility verdict (only Unsat
   does), so feasibility stops after the refutation step. *)
let feasible_prepared ps =
  instrumented
    (fun ok -> if ok then m_verdict_unknown else m_verdict_unsat)
    (fun () -> match refute ps with Refuted -> false | Open _ -> true)

let feasible cs = feasible_prepared (List.map prepare cs)

let domain_of_prepared ps e =
  match propagate_rounds ps with
  | exception Contradiction -> Domain.const 0
  | st -> ( try abstract_eval st e with Contradiction -> Domain.const 0)
