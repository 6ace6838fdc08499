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

let sort_floats (a : float array) =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  let rec qsort lo0 hi0 =
    let lo = ref lo0 and hi = ref hi0 in
    while !hi - !lo > 16 do
      let mid = !lo + ((!hi - !lo) / 2) in
      (* Median of three into [mid], giving a deterministic pivot. *)
      if a.(mid) < a.(!lo) then swap mid !lo;
      if a.(!hi) < a.(!lo) then swap !hi !lo;
      if a.(!hi) < a.(mid) then swap !hi mid;
      let p = a.(mid) in
      (* Fat partition: [lo,lt) < p, [lt,i) = p, (gt,hi] > p. *)
      let lt = ref !lo and i = ref !lo and gt = ref !hi in
      while !i <= !gt do
        let x = a.(!i) in
        if x < p then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if x > p then begin
          swap !i !gt;
          decr gt
        end
        else incr i
      done;
      if !lt - !lo < !hi - !gt then begin
        qsort !lo (!lt - 1);
        lo := !gt + 1
      end
      else begin
        qsort (!gt + 1) !hi;
        hi := !lt - 1
      end
    done;
    insertion !lo !hi
  in
  let n = Array.length a in
  if n > 1 then qsort 0 (n - 1)

let cdf_of_samples samples =
  assert (Array.length samples > 0);
  let sorted = Array.copy samples in
  sort_floats sorted;
  sorted

let quantile c q =
  assert (q >= 0.0 && q <= 1.0);
  let n = Array.length c in
  let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  c.(idx)

let median c = quantile c 0.5
let min_value c = c.(0)
let max_value c = c.(Array.length c - 1)

let points c ?(steps = 20) () =
  let n = Array.length c in
  let acc = ref [] in
  for i = steps downto 0 do
    let q = float_of_int i /. float_of_int steps in
    let idx = min (n - 1) (int_of_float (q *. float_of_int n)) in
    acc := (c.(idx), q) :: !acc
  done;
  !acc

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

(* Sorted as floats: the samples (cycles, instructions, misses) are far below
   2^53, so the conversion is exact, and a flat float array costs the same
   words as an int array copy ([Array.map] would box every element). *)
let median_int a =
  let n = Array.length a in
  assert (n > 0);
  let sorted = Array.create_float n in
  for i = 0 to n - 1 do
    sorted.(i) <- float_of_int a.(i)
  done;
  sort_floats sorted;
  int_of_float sorted.((n - 1) / 2)
