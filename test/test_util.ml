(* Tests for castan.util: PRNG, Zipf sampling, statistics, tables, durable
   writes. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let rng_deterministic () =
  let a = Util.Rng.create 99 and b = Util.Rng.create 99 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let rng_copy_shares_state () =
  let a = Util.Rng.create 5 in
  ignore (Util.Rng.bits64 a);
  let b = Util.Rng.copy a in
  check Alcotest.int64 "copies agree" (Util.Rng.bits64 a) (Util.Rng.bits64 b)

let rng_split_diverges () =
  let a = Util.Rng.create 5 in
  let b = Util.Rng.split a in
  let xs = List.init 16 (fun _ -> Util.Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Util.Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let rng_int_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int rng n in
      v >= 0 && v < n)

let rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int_in is inclusive" ~count:500
    QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

(* Tg draws packet [i]'s noise with [floats_ix]; it must be bit for bit
   the first float of [split_ix root i], from any parent state, and leave
   the parent where it was. *)
let rng_floats_ix_is_split_ix =
  QCheck.Test.make ~name:"Rng.floats_ix = float of split_ix" ~count:200
    QCheck.(triple int (int_range 0 20) (int_range 0 300))
    (fun (seed, advance, n) ->
      let root = Util.Rng.create seed in
      for _ = 1 to advance do ignore (Util.Rng.bits64 root) done;
      let before = Util.Rng.copy root in
      let bits = Array.map Int64.bits_of_float in
      bits (Util.Rng.floats_ix root n)
      = bits (Array.init n (fun i -> Util.Rng.float (Util.Rng.split_ix root i)))
      && Util.Rng.bits64 root = Util.Rng.bits64 before)

let rng_uniformity () =
  let rng = Util.Rng.create 1 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Util.Rng.int rng 10 in
    buckets.(k) <- buckets.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d has %d hits (expected ~%d)" i c (n / 10))
    buckets

let rng_shuffle_permutes () =
  let rng = Util.Rng.create 3 in
  let a = Array.init 100 Fun.id in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 Fun.id)

let zipf_probs_sum () =
  let z = Util.Zipf.create ~s:1.26 ~n:500 in
  let total = ref 0.0 in
  for rank = 1 to 500 do
    total := !total +. Util.Zipf.prob z rank
  done;
  if abs_float (!total -. 1.0) > 1e-9 then
    Alcotest.failf "probabilities sum to %f" !total

let zipf_monotone () =
  let z = Util.Zipf.create ~s:1.26 ~n:100 in
  for rank = 2 to 100 do
    if Util.Zipf.prob z rank > Util.Zipf.prob z (rank - 1) +. 1e-12 then
      Alcotest.failf "prob increased at rank %d" rank
  done

let zipf_sampling_matches_prob () =
  let z = Util.Zipf.create ~s:1.26 ~n:50 in
  let rng = Util.Rng.create 17 in
  let n = 200_000 in
  let hits = Array.make 51 0 in
  for _ = 1 to n do
    let r = Util.Zipf.sample z rng in
    hits.(r) <- hits.(r) + 1
  done;
  let observed = float_of_int hits.(1) /. float_of_int n in
  let expected = Util.Zipf.prob z 1 in
  if abs_float (observed -. expected) > 0.01 then
    Alcotest.failf "rank-1 frequency %f, expected %f" observed expected

let zipf_sample_in_support =
  QCheck.Test.make ~name:"Zipf.sample within support" ~count:300
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let z = Util.Zipf.create ~s:1.26 ~n in
      let rng = Util.Rng.create seed in
      let v = Util.Zipf.sample z rng in
      v >= 1 && v <= n)

let stats_median () =
  let cdf = Util.Stats.cdf_of_samples [| 5.0; 1.0; 3.0 |] in
  check (Alcotest.float 1e-9) "median" 3.0 (Util.Stats.median cdf);
  check (Alcotest.float 1e-9) "min" 1.0 (Util.Stats.min_value cdf);
  check (Alcotest.float 1e-9) "max" 5.0 (Util.Stats.max_value cdf)

let stats_quantile_sorted =
  QCheck.Test.make ~name:"Stats.quantile is monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun samples ->
      QCheck.assume (samples <> []);
      let cdf = Util.Stats.cdf_of_samples (Array.of_list samples) in
      let prev = ref neg_infinity in
      List.for_all
        (fun q ->
          let v = Util.Stats.quantile cdf q in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 0.0; 0.25; 0.5; 0.75; 1.0 ])

let stats_median_int () =
  check Alcotest.int "odd" 2 (Util.Stats.median_int [| 3; 1; 2 |]);
  check Alcotest.int "even lower" 2 (Util.Stats.median_int [| 4; 1; 2; 3 |]);
  check Alcotest.int "single" 7 (Util.Stats.median_int [| 7 |])

(* Both sorted views against [List.sort]: lengths far past the insertion-sort
   cutoff, values from a narrow range around zero so that duplicates dominate
   (the case the fat partition exists for) and negatives occur. *)
let stats_sort_matches_list_sort =
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun span ->
      array_size (int_range 1 5_000) (int_range (-span) span))
  in
  QCheck.Test.make ~name:"Stats sorts agree with List.sort" ~count:200
    (QCheck.make ~print:QCheck.Print.(array int) gen)
    (fun a ->
      let n = Array.length a in
      let sorted = List.sort compare (Array.to_list a) in
      let cdf = Util.Stats.cdf_of_samples (Array.map float_of_int a) in
      let q i = if n = 1 then 0.0 else float_of_int i /. float_of_int (n - 1) in
      Util.Stats.median_int a = List.nth sorted ((n - 1) / 2)
      && List.init n (fun i -> int_of_float (Util.Stats.quantile cdf (q i)))
         = sorted)

(* The selected medians against the sorted reads, bit for bit: float
   samples from a narrow set so that duplicates dominate, lengths on both
   sides of the insertion-sort cutoff; the input stays untouched. *)
let stats_select_matches_sort =
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun span ->
      array_size (int_range 1 3_000)
        (map (fun k -> 4000. +. (float_of_int k /. 8.)) (int_range (-span) span)))
  in
  QCheck.Test.make ~name:"Stats selected medians equal the sorted reads"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(array float) gen)
    (fun a ->
      let before = Array.copy a in
      let n = Array.length a in
      let ints = Array.map (fun x -> int_of_float (x *. 8.)) a in
      let sorted_ints = Array.copy ints in
      Array.sort compare sorted_ints;
      Int64.equal
        (Int64.bits_of_float (Util.Stats.median_of_samples a))
        (Int64.bits_of_float
           (Util.Stats.median (Util.Stats.cdf_of_samples a)))
      && Util.Stats.median_int ints = sorted_ints.((n - 1) / 2)
      && a = before)

let stats_mean_stddev () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Util.Stats.mean [| 1.0; 2.0; 3.0 |]);
  if abs_float (Util.Stats.stddev [| 2.0; 2.0; 2.0 |]) > 1e-9 then
    Alcotest.fail "stddev of constants should be 0"

let table_render () =
  let s =
    Util.Table.render ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* short row padded, no exception *)
  Alcotest.(check bool) "has separator" true (String.contains s '-')

let durable_write_basics () =
  let dir = Filename.temp_file "castan-durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "artifact.txt" in
  Util.Durable.write_string ~path "first\n";
  Util.Durable.write_string ~path "second\n";
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "rename replaces atomically" "second\n" content;
  Alcotest.(check (list string)) "no temp files left behind"
    [ "artifact.txt" ]
    (Array.to_list (Sys.readdir dir) |> List.sort compare);
  Sys.remove path;
  Sys.rmdir dir

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng copy" `Quick rng_copy_shares_state;
    Alcotest.test_case "rng split" `Quick rng_split_diverges;
    Alcotest.test_case "rng uniform" `Quick rng_uniformity;
    Alcotest.test_case "rng shuffle" `Quick rng_shuffle_permutes;
    qtest rng_int_range;
    qtest rng_int_in_range;
    qtest rng_floats_ix_is_split_ix;
    Alcotest.test_case "zipf probs sum to 1" `Quick zipf_probs_sum;
    Alcotest.test_case "zipf monotone" `Quick zipf_monotone;
    Alcotest.test_case "zipf sampling freq" `Quick zipf_sampling_matches_prob;
    qtest zipf_sample_in_support;
    Alcotest.test_case "stats median" `Quick stats_median;
    qtest stats_quantile_sorted;
    Alcotest.test_case "stats median_int" `Quick stats_median_int;
    qtest stats_sort_matches_list_sort;
    qtest stats_select_matches_sort;
    Alcotest.test_case "stats mean/stddev" `Quick stats_mean_stddev;
    Alcotest.test_case "table render" `Quick table_render;
    Alcotest.test_case "durable write basics" `Quick durable_write_basics;
  ]
