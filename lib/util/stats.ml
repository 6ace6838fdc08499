type cdf = float array (* sorted samples *)

(* A specialized in-place sort: [Array.sort compare] pays polymorphic-compare
   dispatch on every element pair, and even a monomorphic comparator boxes
   both floats per call through the closure.  Direct [<]/[>] on unboxed
   float array elements allocates nothing, and the fat (three-way)
   partition matters because measurement samples are duplicate-heavy — a
   median instruction count can cover most of a workload, which would drive
   a binary-partition quicksort quadratic.  Pivot choice is deterministic
   (median of three), recursion goes into the smaller side only, so stack
   depth is O(log n).  Sorting is what CDF construction does with hundreds
   of thousands of samples per workload, so this path is what replay-heavy
   experiments end up timing. *)

let swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let insertion (a : float array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Partitions [a.(lo..hi)] around the median of its first, middle and last
   elements (a deterministic pivot [p]) into [lo,lt) < p, [lt,gt] = p and
   (gt,hi] > p; returns [(lt, gt)]. *)
let partition (a : float array) lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if a.(mid) < a.(lo) then swap a mid lo;
  if a.(hi) < a.(lo) then swap a hi lo;
  if a.(hi) < a.(mid) then swap a hi mid;
  let p = a.(mid) in
  let lt = ref lo and i = ref lo and gt = ref hi in
  while !i <= !gt do
    let x = a.(!i) in
    if x < p then begin
      swap a !lt !i;
      incr lt;
      incr i
    end
    else if x > p then begin
      swap a !i !gt;
      decr gt
    end
    else incr i
  done;
  (!lt, !gt)

let sort_floats (a : float array) =
  let rec qsort lo0 hi0 =
    let lo = ref lo0 and hi = ref hi0 in
    while !hi - !lo > 16 do
      let lt, gt = partition a !lo !hi in
      if lt - !lo < !hi - gt then begin
        qsort !lo (lt - 1);
        lo := gt + 1
      end
      else begin
        qsort (gt + 1) !hi;
        hi := lt - 1
      end
    done;
    insertion a !lo !hi
  in
  let n = Array.length a in
  if n > 1 then qsort 0 (n - 1)

(* [select a k] is the value [a.(k)] would hold once [a] is sorted: the
   partition of [sort_floats], descending into the side that holds [k]
   only, so O(n) on average.  Both order by [<] and [>] alone, so the value
   is the sorted read's.  Permutes [a]. *)
let select (a : float array) k =
  let rec go lo hi =
    if hi - lo <= 16 then begin
      insertion a lo hi;
      a.(k)
    end
    else
      let lt, gt = partition a lo hi in
      if k < lt then go lo (lt - 1) else if k > gt then go (gt + 1) hi else a.(k)
  in
  go 0 (Array.length a - 1)

let cdf_of_samples samples =
  assert (Array.length samples > 0);
  let sorted = Array.copy samples in
  sort_floats sorted;
  sorted

let quantile_index n q = int_of_float (Float.round (q *. float_of_int (n - 1)))

let quantile c q =
  assert (q >= 0.0 && q <= 1.0);
  c.(quantile_index (Array.length c) q)

let median c = quantile c 0.5

let median_of_samples samples =
  let n = Array.length samples in
  assert (n > 0);
  select (Array.copy samples) (quantile_index n 0.5)

let min_value c = c.(0)
let max_value c = c.(Array.length c - 1)

let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let stddev a =
  let m = mean a in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
    /. float_of_int (Array.length a)
  in
  sqrt var

(* Selected as floats: the samples (cycles, instructions, misses) are far
   below 2^53, so the conversion is exact, and a flat float array costs the
   same words as an int array copy ([Array.map] would box every element). *)
let median_int a =
  let n = Array.length a in
  assert (n > 0);
  let copy = Array.create_float n in
  for i = 0 to n - 1 do
    copy.(i) <- float_of_int a.(i)
  done;
  int_of_float (select copy ((n - 1) / 2))
