type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea & Flood 2014).  [floats_ix]
   inlines it to keep its int64s unboxed; every other caller calls the
   out-of-line [mix]. *)
let[@inline] mix_inline z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix z = mix_inline z

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = s }

(* Index-keyed splitting for sharded loops: child [ix] is a pure function of
   the parent's current state, so any partition of [0, n) into shards yields
   the same per-index streams.  [ix + 1] keeps child 0 distinct from the
   parent's own continuation. *)
let split_ix t ix =
  { state = mix (Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (ix + 1)))) }

(* [float (split_ix t ix)] for every [ix < n], without building a child:
   the child's state is [mix] of the keyed sum, its first draw [mix] of that
   plus the gamma.  With [mix] inlined the int64 arithmetic stays unboxed,
   so the loop allocates nothing but its result. *)
let floats_ix t n =
  let a = Array.make n 0.0 in
  for ix = 0 to n - 1 do
    let child =
      mix_inline
        (Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (ix + 1))))
    in
    let z = mix_inline (Int64.add child golden_gamma) in
    Array.unsafe_set a ix
      (Int64.to_float (Int64.shift_right_logical z 11)
      *. (1.0 /. 9007199254740992.0))
  done;
  a

let copy t = { state = t.state }

let int t n =
  assert (n > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
