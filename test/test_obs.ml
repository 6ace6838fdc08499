(* Tests for the observability layer: the JSON codec, the metrics registry,
   span tracing, the instrumentation hooks in solver/cache/symbex — and the
   contract that matters most: telemetry off (the default) is a no-op, and
   telemetry on does not perturb analysis results. *)

open Ir.Dsl

let geom = Cache.Geometry.xeon_e5_2667v2

(* Every test leaves the ambient telemetry state as it found it (off). *)
let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_active true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_active false;
      Obs.Metrics.reset ())
    f

let with_trace_file f =
  let path = Filename.temp_file "castan-trace" ".jsonl" in
  Obs.Trace.set_sink (Obs.Sink.file path);
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.close ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      f ();
      Obs.Trace.close ();
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> ""))

let parse_ok line =
  match Obs.Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable %S: %s" line e)

let num = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> Alcotest.fail "expected a number"

let field obj key =
  match Obs.Json.member key obj with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing field %s" key)

(* ---------------- Json ---------------- *)

let json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("t", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("x", Obs.Json.Float 1.5);
        ("s", Obs.Json.Str "a \"quoted\"\nline\twith \\ and \x01");
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]);
      ]
  in
  (match Obs.Json.parse (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrips" true (v = v')
  | Error e -> Alcotest.fail e);
  (* ints and floats stay distinct through the codec *)
  (match Obs.Json.parse "7" with
  | Ok (Obs.Json.Int 7) -> ()
  | _ -> Alcotest.fail "7 must parse as Int");
  (match Obs.Json.parse "7.0" with
  | Ok (Obs.Json.Float 7.0) -> ()
  | _ -> Alcotest.fail "7.0 must parse as Float");
  (* non-finite floats degrade to null, keeping output loadable *)
  match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Float nan)) with
  | Ok Obs.Json.Null -> ()
  | _ -> Alcotest.fail "nan must serialize as null"

let json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "truee"; "1 2"; "\"unterminated"; "{\"a\" 1}" ];
  (* member is total *)
  Alcotest.(check bool) "member on non-object" true
    (Obs.Json.member "k" (Obs.Json.Int 3) = None)

(* ---------------- Metrics ---------------- *)

let metrics_gating_and_snapshot () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Alcotest.(check int) "inactive incr is a no-op" 0 (Obs.Metrics.counter_value c);
  with_metrics (fun () ->
      Obs.Metrics.incr c;
      Obs.Metrics.incr ~by:5 c;
      Alcotest.(check int) "active incr counts" 6 (Obs.Metrics.counter_value c);
      let snap = Obs.Metrics.snapshot () in
      let counters =
        match snap with
        | Obs.Json.Obj [ ("counters", counters) ] -> counters
        | _ -> Alcotest.fail "the snapshot must hold only counters"
      in
      Alcotest.(check bool) "counter in snapshot" true
        (Obs.Json.member "test.counter" counters = Some (Obs.Json.Int 6));
      (* the whole snapshot serializes to parseable JSON *)
      (match Obs.Json.parse (Obs.Json.to_string snap) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Obs.Metrics.reset ();
      Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c);
      (* registry survives reset: the same name yields the same instrument *)
      Obs.Metrics.incr (Obs.Metrics.counter "test.counter");
      Alcotest.(check int) "same instrument" 1 (Obs.Metrics.counter_value c))

(* ---------------- Trace ---------------- *)

let trace_disabled_is_inert () =
  (* default sink is null: spans cost nothing and the depth stays balanced *)
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
  let s = Obs.Trace.enter "x" in
  Alcotest.(check int) "no depth" 0 (Obs.Trace.depth ());
  Alcotest.(check (float 0.0)) "exit returns 0" 0.0 (Obs.Trace.exit s);
  let v, dt = Obs.Trace.timed "x" (fun () -> 41 + 1) in
  Alcotest.(check int) "timed passes result" 42 v;
  Alcotest.(check bool) "timed still measures" true (dt >= 0.0)

let trace_nesting_well_formed () =
  let lines =
    with_trace_file (fun () ->
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span "inner"
              ~args:[ ("k", Obs.Json.Int 1) ]
              (fun () -> Obs.Trace.instant "mark");
            Alcotest.(check int) "one open span" 1 (Obs.Trace.depth ()));
        Alcotest.(check int) "balanced" 0 (Obs.Trace.depth ()))
  in
  let events = List.map parse_ok lines in
  let by_name name =
    match
      List.find_opt (fun e -> Obs.Json.member "name" e = Some (Obs.Json.Str name)) events
    with
    | Some e -> e
    | None -> Alcotest.fail (name ^ " event missing")
  in
  let outer = by_name "outer" and inner = by_name "inner" and mark = by_name "mark" in
  Alcotest.(check bool) "complete events" true
    (Obs.Json.member "ph" outer = Some (Obs.Json.Str "X")
    && Obs.Json.member "ph" inner = Some (Obs.Json.Str "X"));
  Alcotest.(check bool) "instant event" true
    (Obs.Json.member "ph" mark = Some (Obs.Json.Str "i"));
  (* nesting is encoded by time-range containment on one pid/tid *)
  let ts e = num (field e "ts") and dur e = num (field e "dur") in
  Alcotest.(check bool) "inner starts within outer" true (ts inner >= ts outer);
  Alcotest.(check bool) "inner ends within outer" true
    (ts inner +. dur inner <= ts outer +. dur outer);
  Alcotest.(check bool) "mark within inner" true
    (num (field mark "ts") >= ts inner
    && num (field mark "ts") <= ts inner +. dur inner);
  Alcotest.(check bool) "args preserved" true
    (match Obs.Json.member "args" inner with
    | Some args -> Obs.Json.member "k" args = Some (Obs.Json.Int 1)
    | None -> false)

(* ---------------- instrumentation hooks ---------------- *)

let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let solver_verdict_counters () =
  with_metrics (fun () ->
      let dst : Ir.Expr.sexpr = Leaf (Ir.Expr.Pkt { pkt = 0; field = Dst_ip }) in
      (match
         Solver.Solve.sat
           [ Ir.Expr.Cmp (Eq, Binop (Rem, dst, Const 4096), Const 77) ]
       with
      | Solver.Solve.Sat _ -> ()
      | _ -> Alcotest.fail "instance must be sat");
      Alcotest.(check int) "sat counted" 1 (cval "solver.verdict.sat");
      (match
         Solver.Solve.sat
           [ Ir.Expr.Cmp (Eq, dst, Const 1); Ir.Expr.Cmp (Eq, dst, Const 2) ]
       with
      | Solver.Solve.Unsat -> ()
      | _ -> Alcotest.fail "instance must be unsat");
      Alcotest.(check int) "unsat counted" 1 (cval "solver.verdict.unsat");
      Alcotest.(check bool) "unsat cause attributed" true
        (cval "solver.unsat.propagation" + cval "solver.unsat.ordering" >= 1))

let cache_model_counters () =
  with_metrics (fun () ->
      let m = Cache.Model.baseline geom in
      let m, o1 = Cache.Model.access_concrete m 0x12340 in
      Alcotest.(check bool) "first access misses" true o1.Cache.Model.miss;
      let _, o2 = Cache.Model.access_concrete m 0x12340 in
      Alcotest.(check bool) "re-access hits" true (not o2.Cache.Model.miss);
      Alcotest.(check int) "miss counted" 1 (cval "cache.model.miss");
      Alcotest.(check int) "hit counted" 1 (cval "cache.model.hit"))

let driver_kill_and_degraded_counters () =
  (* heap exhaustion (as in test_resilience): the kill must surface as a
     labeled counter and flip the degraded-runs counter *)
  let prog =
    program ~name:"t" ~entry:"process"
      [
        func "process" [ "src_port" ]
          [
            "k" <-- i 0;
            while_ (v "k" <: i 8) [ alloc "p" 4096; "k" <-- v "k" +: i 1 ];
            ret (i 0);
          ];
      ]
  in
  with_metrics (fun () ->
      let cfg = Ir.Lower.program prog in
      let mem =
        Ir.Memory.create ~regions:cfg.Ir.Cfg.regions ~heap_bytes:4096
          ~inject:(fun v -> Ir.Expr.Const v)
      in
      let r =
        Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom)
          (Test_symbex.driver_config 1)
      in
      Alcotest.(check bool) "driver saw the kill" true
        (r.stats.Symbex.Driver.killed >= 1);
      Alcotest.(check bool) "kill label mirrored to metrics" true
        (cval "symbex.kills.heap-exhausted" >= 1);
      Alcotest.(check int) "degraded run counted" 1 (cval "symbex.degraded_runs");
      Alcotest.(check int) "kill total mirrored" r.stats.Symbex.Driver.killed
        (cval "symbex.killed");
      Alcotest.(check int) "explored mirrored" r.stats.Symbex.Driver.explored
        (cval "symbex.explored"))

(* ---------------- telemetry does not perturb results ---------------- *)

let analysis_fingerprint () =
  (* the run is deterministic in everything except time, so the
     fingerprint must not depend on whether telemetry is recording *)
  let nf = Nf.Registry.find "lpm-btrie" in
  let config =
    { (Castan.Analyze.default_config ()) with
      n_packets = Some 4; instr_budget = 150_000 }
  in
  let o = Castan.Analyze.run ~config nf in
  ( o.Castan.Analyze.predicted_cost,
    Array.to_list o.Castan.Analyze.workload.Testbed.Workload.packets
    |> List.map Nf.Packet.to_string )

let telemetry_off_vs_on_identical () =
  let off = analysis_fingerprint () in
  let on =
    with_metrics (fun () ->
        let path = Filename.temp_file "castan-trace" ".jsonl" in
        Obs.Trace.set_sink (Obs.Sink.file path);
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.close ();
            Sys.remove path)
          analysis_fingerprint)
  in
  Alcotest.(check int) "same predicted cost" (fst off) (fst on);
  Alcotest.(check (list string)) "same workload" (snd off) (snd on)

let tests =
  [
    Alcotest.test_case "json: roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json: rejects garbage" `Quick json_rejects_garbage;
    Alcotest.test_case "metrics: gating, snapshot, reset" `Quick
      metrics_gating_and_snapshot;
    Alcotest.test_case "trace: disabled sink is inert" `Quick
      trace_disabled_is_inert;
    Alcotest.test_case "trace: nesting well-formed" `Quick
      trace_nesting_well_formed;
    Alcotest.test_case "solver: verdict counters" `Quick solver_verdict_counters;
    Alcotest.test_case "cache: hit/miss counters" `Quick cache_model_counters;
    Alcotest.test_case "symbex: kill + degraded counters" `Quick
      driver_kill_and_degraded_counters;
    Alcotest.test_case "no perturbation: analysis identical" `Slow
      telemetry_off_vs_on_identical;
  ]
