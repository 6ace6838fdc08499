(* Tests for the Util.Pool worker pool and its determinism contract: results
   in input order for every [jobs], lowest-failing-index exception choice,
   counter totals and the failure list identical for every [jobs] (from
   toy tasks and from real campaigns, whose results must match too), and
   split_ix RNG discipline. *)

let qtest = QCheck_alcotest.to_alcotest

(* A cheap pure function with enough bit-mixing that ordering mistakes
   cannot cancel out. *)
let mix x = (x * 2654435761) lxor (x asr 3)

(* ---------------- map/mapi vs the serial baseline ---------------- *)

let map_matches_serial =
  QCheck.Test.make ~name:"Pool.map ~jobs:k = List.map" ~count:200
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, items) ->
      Util.Pool.map ~jobs mix items = List.map mix items)

let mapi_matches_serial =
  QCheck.Test.make ~name:"Pool.mapi ~jobs:k = List.mapi" ~count:200
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, items) ->
      Util.Pool.mapi ~jobs (fun i x -> (i, mix x)) items
      = List.mapi (fun i x -> (i, mix x)) items)

exception Boom of int

let raises_lowest_failing_index =
  QCheck.Test.make ~name:"Pool.mapi re-raises the lowest failing index"
    ~count:200
    QCheck.(pair (int_range 1 8) (small_list bool))
    (fun (jobs, fails) ->
      QCheck.assume (List.exists Fun.id fails);
      (* expected failure: the first [true], computed explicitly — never via
         List.map evaluation order *)
      let rec first i = function
        | [] -> assert false
        | true :: _ -> i
        | false :: rest -> first (i + 1) rest
      in
      let expected = first 0 fails in
      match
        Util.Pool.mapi ~jobs (fun i b -> if b then raise (Boom i) else i) fails
      with
      | _ -> false
      | exception Boom i -> i = expected)

let chunked_partitions =
  QCheck.Test.make ~name:"Pool.chunked covers [0,n) contiguously" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (jobs, n) ->
      let ranges = Util.Pool.chunked ~jobs n (fun ~lo ~hi -> (lo, hi)) in
      if n = 0 then ranges = []
      else
        let rec contiguous expect = function
          | [] -> expect = n
          | (lo, hi) :: rest -> lo = expect && hi >= lo && contiguous hi rest
        in
        contiguous 0 ranges)

(* ---------------- split_ix RNG discipline ---------------- *)

(* Child streams depend only on (root state, index): deriving them in any
   order — or from different shards — yields the same values, which is what
   makes Pool.chunked sampling jobs-invariant. *)
let split_ix_order_invariant () =
  let draw root i = Util.Rng.int (Util.Rng.split_ix root i) 1_000_000 in
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  let forward = List.init 32 (fun i -> draw a i) in
  let backward = List.rev (List.init 32 (fun i -> draw b (31 - i))) in
  Alcotest.(check (list int)) "derivation order is irrelevant" forward backward;
  (* split_ix must not advance the parent *)
  let p = Util.Rng.create 7 in
  ignore (Util.Rng.split_ix p 5 : Util.Rng.t);
  let after = Util.Rng.int p 1_000_000 in
  let q = Util.Rng.create 7 in
  Alcotest.(check int) "parent stream untouched" (Util.Rng.int q 1_000_000)
    after

let split_ix_children_distinct () =
  let root = Util.Rng.create 1234 in
  let firsts =
    List.init 100 (fun i -> Util.Rng.int (Util.Rng.split_ix root i) max_int)
  in
  Alcotest.(check int) "100 distinct child streams" 100
    (List.length (List.sort_uniq compare firsts))

(* ---------------- telemetry is jobs-invariant ---------------- *)

(* Counters created *inside* the task, as instrumented modules may do. *)
let metric_task i =
  Obs.Metrics.incr ~by:(i + 1) (Obs.Metrics.counter "pool.test.ctr");
  Obs.Metrics.incr
    (Obs.Metrics.counter (Printf.sprintf "pool.test.c%d" (i mod 3)))

let metrics_snapshot_with jobs =
  Obs.Metrics.set_active true;
  Obs.Metrics.reset ();
  Util.Pool.run ~jobs (List.init 12 (fun i () -> metric_task i));
  let s = Obs.Json.to_string (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  Obs.Metrics.set_active false;
  s

let metrics_merge_deterministic () =
  Alcotest.(check string) "serial and -j4 snapshots are byte-identical"
    (metrics_snapshot_with 1) (metrics_snapshot_with 4)

(* Small campaigns (a 5,000-instruction budget, no contention model): each
   is a function of its config, so neither its results nor the counters it
   bumps may depend on how many domains ran them. *)
let campaign_config =
  {
    Castan.Experiment.quick_config with
    samples = 401;
    analysis_instrs = 5_000;
  }

let campaign_nfs = [ "lpm-btrie"; "lb-hash-table"; "nat-red-black-tree" ]

let campaigns_at jobs =
  Util.Pool.map ~jobs
    (Castan.Experiment.run campaign_config ~cache:Baseline)
    campaign_nfs

let counters_at jobs =
  Obs.Metrics.reset ();
  Obs.Metrics.set_active true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_active false;
      Obs.Metrics.reset ())
    (fun () ->
      let runs =
        List.map
          (function
            | Ok r -> r | Error f -> Alcotest.fail (Util.Resilience.to_string f))
          (campaigns_at jobs)
      in
      (Obs.Json.to_string (Obs.Metrics.snapshot ()), runs))

(* Real failures, one per stage: an unknown NF fails its symbex stage, and
   a negative sample count fails each real NF's testbed stage after its
   analysis ran.  A failure is a value of its campaign alone, so the
   records must be equal under [=] whichever domain raised them. *)
let failures_at jobs =
  Util.Pool.map ~jobs
    (Castan.Experiment.run
       { campaign_config with samples = -1; analysis_instrs = 500 }
       ~cache:Baseline)
    ("no-such-nf" :: campaign_nfs)
  |> List.map (function
       | Ok _ -> Alcotest.fail "expected a failed campaign"
       | Error f -> f)

let campaign_telemetry_jobs_invariant () =
  let counters1, runs1 = counters_at 1 in
  let counters4, runs4 = counters_at 4 in
  Alcotest.(check string) "same counters at -j 1 and -j 4" counters1 counters4;
  List.iter2
    (fun (r1 : Castan.Experiment.nf_run) (r4 : Castan.Experiment.nf_run) ->
      let name = r1.nf.name in
      Alcotest.(check string) (name ^ ": same ktest")
        (Castan.Ktest.ktest_string r1.castan)
        (Castan.Ktest.ktest_string r4.castan);
      Alcotest.(check string) (name ^ ": same predicted metrics")
        (Castan.Ktest.metrics_string r1.castan)
        (Castan.Ktest.metrics_string r4.castan);
      Alcotest.(check bool) (name ^ ": same NOP baseline") true
        (r1.nop = r4.nop);
      Alcotest.(check bool) (name ^ ": same workload rows") true
        (r1.rows = r4.rows))
    runs1 runs4;
  let f1 = failures_at 1 and f4 = failures_at 4 in
  Alcotest.(check (list string)) "symbex, then testbed failures"
    ("symbex" :: List.map (fun _ -> "testbed") campaign_nfs)
    (List.map (fun f -> f.Util.Resilience.stage) f1);
  Alcotest.(check (list string)) "same failure list at -j 1 and -j 4"
    (List.map Util.Resilience.to_string f1)
    (List.map Util.Resilience.to_string f4);
  Alcotest.(check bool) "same failure records" true (f1 = f4)

(* ---------------- nesting, stats ---------------- *)

let nested_pool_falls_back_sequential () =
  (* A map inside a worker must not spawn domains (or deadlock): it runs
     on the serial path inside the task. *)
  let r =
    Util.Pool.map ~jobs:4
      (fun base -> Util.Pool.map ~jobs:4 (fun x -> base + x) [ 1; 2; 3 ])
      [ 10; 20; 30; 40 ]
  in
  Alcotest.(check (list (list int)))
    "nested maps still ordered"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
    r

let stats_count_tasks () =
  Util.Pool.reset_stats ();
  ignore (Util.Pool.map ~jobs:4 mix (List.init 8 Fun.id) : int list);
  Alcotest.(check int) "8 tasks accounted" 8
    (Util.Pool.stats ()).Util.Pool.tasks;
  (* jobs = 1 takes the serial path: no pool accounting at all *)
  Util.Pool.reset_stats ();
  ignore (Util.Pool.map ~jobs:1 mix (List.init 8 Fun.id) : int list);
  Alcotest.(check int) "serial path bypasses the pool" 0
    (Util.Pool.stats ()).Util.Pool.tasks

let tests =
  [
    qtest map_matches_serial;
    qtest mapi_matches_serial;
    qtest raises_lowest_failing_index;
    qtest chunked_partitions;
    Alcotest.test_case "split_ix is order-invariant" `Quick
      split_ix_order_invariant;
    Alcotest.test_case "split_ix children are distinct" `Quick
      split_ix_children_distinct;
    Alcotest.test_case "metrics merge is deterministic" `Quick
      metrics_merge_deterministic;
    Alcotest.test_case "nested pool falls back to sequential" `Quick
      nested_pool_falls_back_sequential;
    Alcotest.test_case "pool stats count tasks" `Quick stats_count_tasks;
    Alcotest.test_case "campaign counters and failures are jobs-invariant"
      `Slow campaign_telemetry_jobs_invariant;
  ]
