type t = { n : int; cdf : float array }

let create ~s ~n =
  assert (n >= 1 && s > 0.0);
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for rank = 1 to n do
    total := !total +. (1.0 /. Float.pow (float_of_int rank) s);
    cdf.(rank - 1) <- !total
  done;
  let z = !total in
  Array.iteri (fun i v -> cdf.(i) <- v /. z) cdf;
  { n; cdf }

(* Binary search for the first index whose cdf is >= u. *)
let sample t rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo + 1

let prob t rank =
  assert (rank >= 1 && rank <= t.n);
  if rank = 1 then t.cdf.(0) else t.cdf.(rank - 1) -. t.cdf.(rank - 2)
