type t = { lo : int; hi : int; step : int }

(* Bounds are kept well inside OCaml int range so arithmetic on them cannot
   overflow when two domain bounds are combined. *)
let bound = 1 lsl 55

let clamp v = if v > bound then bound else if v < -bound then -bound else v

(* Saturating arithmetic: domain bounds must never wrap around, or intervals
   invert and every downstream judgement is garbage. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if abs a > bound / abs b then if (a > 0) = (b > 0) then bound else -bound
  else a * b

let sat_shl a k = sat_mul a (1 lsl min k 58)

let make ~lo ~hi ~step =
  let lo = clamp lo and hi = clamp hi in
  assert (lo <= hi);
  let step = max step 1 in
  let hi = lo + ((hi - lo) / step * step) in
  { lo; hi; step }

let const c = make ~lo:c ~hi:c ~step:1
let of_width w = make ~lo:0 ~hi:((1 lsl w) - 1) ~step:1
(* [top] must contain negative values: the bitwise fallbacks below reach for
   it when an operand may be negative, and an interval excluding the true
   value turns the Lt/Le pruning in Solve unsound. *)
let top = make ~lo:(-bound) ~hi:bound ~step:1

let is_const d = if d.lo = d.hi then Some d.lo else None
let mem d v = v >= d.lo && v <= d.hi && (v - d.lo) mod d.step = 0
let cardinal d = ((d.hi - d.lo) / d.step) + 1

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let join a b =
  let step = gcd (gcd a.step b.step) (abs (a.lo - b.lo)) in
  make ~lo:(min a.lo b.lo) ~hi:(max a.hi b.hi) ~step:(max step 1)

(* Extended gcd: egcd a b = (g, x, y) with a*x + b*y = g. *)
let rec egcd a b = if b = 0 then (a, 1, 0) else
  let g, x, y = egcd b (a mod b) in
  (g, y, x - (a / b * y))

(* Exact intersection of two arithmetic progressions (CRT).  Exactness
   matters: the symbolic engine relies on an empty meet to reject
   contradictory pointer concretizations. *)
let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None
  else
    let g, p, _q = egcd a.step b.step in
    if (b.lo - a.lo) mod g <> 0 then None
    else if a.step / g > (1 lsl 60) / b.step then
      (* lcm would overflow; fall back to a sound over-approximation. *)
      Some (make ~lo ~hi ~step:g)
    else
      let lcm = a.step / g * b.step in
      (* x ≡ a.lo (mod a.step) and x ≡ b.lo (mod b.step):
         x = a.lo + a.step * t with t ≡ (b.lo - a.lo)/g * p (mod b.step/g) *)
      let m2 = b.step / g in
      let t0 = ((b.lo - a.lo) / g * p) mod m2 in
      let x0 = a.lo + (a.step * (((t0 mod m2) + m2) mod m2)) in
      (* x0 is the smallest solution >= a.lo; lift it to >= lo. *)
      let x =
        if x0 >= lo then x0 else x0 + ((lo - x0 + lcm - 1) / lcm * lcm)
      in
      if x > hi then None else Some (make ~lo:x ~hi ~step:lcm)

let nonneg d = d.lo >= 0

(* Smallest all-ones mask covering hi, for bitwise over-approximations. *)
let mask_up v =
  let rec go m = if m >= v then m else go ((m lsl 1) lor 1) in
  if v <= 0 then 0 else go 1

let unop (op : Ir.Expr.unop) d =
  match op with
  | Neg -> make ~lo:(-d.hi) ~hi:(-d.lo) ~step:d.step
  | Bnot -> make ~lo:(lnot d.hi) ~hi:(lnot d.lo) ~step:1

(* Singleton operands do not disturb the other side's stride. *)
let sum_step a b =
  if a.lo = a.hi then b.step
  else if b.lo = b.hi then a.step
  else max (gcd a.step b.step) 1

let binop (op : Ir.Expr.binop) a b =
  match op with
  | Add -> make ~lo:(a.lo + b.lo) ~hi:(a.hi + b.hi) ~step:(sum_step a b)
  | Sub -> make ~lo:(a.lo - b.hi) ~hi:(a.hi - b.lo) ~step:(sum_step a b)
  | Mul -> (
      match (is_const a, is_const b) with
      | Some k, _ when k >= 0 ->
          make ~lo:(sat_mul k b.lo) ~hi:(sat_mul k b.hi)
            ~step:(max (sat_mul k b.step) 1)
      | _, Some k when k >= 0 ->
          make ~lo:(sat_mul k a.lo) ~hi:(sat_mul k a.hi)
            ~step:(max (sat_mul k a.step) 1)
      | _ ->
          if nonneg a && nonneg b then
            make ~lo:(sat_mul a.lo b.lo) ~hi:(sat_mul a.hi b.hi) ~step:1
          else top)
  | Div -> (
      match is_const b with
      | Some k when k > 0 -> make ~lo:(a.lo / k) ~hi:(a.hi / k) ~step:1
      | _ -> if nonneg a then make ~lo:0 ~hi:a.hi ~step:1 else top)
  | Rem -> (
      match is_const b with
      | Some k when k > 0 ->
          if nonneg a && a.hi < k then a
          else if nonneg a && a.step mod k = 0 then
            (* Every member is congruent to lo mod k. *)
            const (a.lo mod k)
          else make ~lo:0 ~hi:(k - 1) ~step:1
      | _ -> if nonneg a then make ~lo:0 ~hi:a.hi ~step:1 else top)
  | And -> (
      match (is_const a, is_const b) with
      | Some ka, Some kb -> const (ka land kb)
      | _ ->
          if nonneg a && nonneg b then make ~lo:0 ~hi:(min a.hi b.hi) ~step:1
          else top)
  | Or ->
      (* For non-negative x, y: x lor y >= max x y. *)
      if nonneg a && nonneg b then
        make ~lo:(max a.lo b.lo) ~hi:(mask_up a.hi lor mask_up b.hi) ~step:1
      else top
  | Xor ->
      if nonneg a && nonneg b then
        make ~lo:0 ~hi:(mask_up a.hi lor mask_up b.hi) ~step:1
      else top
  | Shl -> (
      match is_const b with
      | Some k when k >= 0 && k < 55 ->
          make ~lo:(sat_shl a.lo k) ~hi:(sat_shl a.hi k)
            ~step:(max (min (sat_shl a.step k) bound) 1)
      | _ -> top)
  | Lshr -> (
      match is_const b with
      | Some k when k >= 0 && nonneg a ->
          let step = if a.step land ((1 lsl k) - 1) = 0 then max (a.step lsr k) 1 else 1 in
          make ~lo:(a.lo lsr k) ~hi:(a.hi lsr k) ~step
      | _ -> if nonneg a then make ~lo:0 ~hi:a.hi ~step:1 else top)

let cmp = make ~lo:0 ~hi:1 ~step:1

let refine_le d c =
  if c < d.lo then None
  else if c >= d.hi then Some d
  else Some (make ~lo:d.lo ~hi:c ~step:d.step)

let refine_ge d c =
  if c > d.hi then None
  else if c <= d.lo then Some d
  else
    (* Align the new lower bound up to the stride grid. *)
    let lo = d.lo + ((c - d.lo + d.step - 1) / d.step * d.step) in
    if lo > d.hi then None else Some (make ~lo ~hi:d.hi ~step:d.step)

let iter d ?(limit = 1_000_000) f =
  let n = min limit (cardinal d) in
  for k = 0 to n - 1 do
    f (d.lo + (k * d.step))
  done

let sample d rng =
  let n = cardinal d in
  if n = 1 then d.lo else d.lo + (Util.Rng.int rng n * d.step)
