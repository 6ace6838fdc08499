(* Tests for the resilience layer: guards, fault injection, structured kill
   accounting and the safety deadline in the driver, and per-NF isolation
   of the experiment harness under injected faults. *)

open Ir.Dsl

let geom = Cache.Geometry.xeon_e5_2667v2
let costs = Symbex.Costs.default geom

(* ---------------- guards and the failure sink ---------------- *)

let guard_contains_and_records () =
  Util.Resilience.reset ();
  let r =
    Util.Resilience.guard ~nf:"lpm-btrie" ~stage:"solving" (fun () ->
        failwith "boom")
  in
  (match r with
  | Ok _ -> Alcotest.fail "expected containment"
  | Error f ->
      Alcotest.(check string) "stage" "solving" f.Util.Resilience.stage;
      Alcotest.(check (option string)) "nf" (Some "lpm-btrie") f.Util.Resilience.nf;
      Alcotest.(check bool) "reason carries the exception" true
        (String.length f.Util.Resilience.reason > 0));
  Alcotest.(check int) "recorded once" 1
    (List.length (Util.Resilience.recorded ()));
  Alcotest.(check bool) "ok path records nothing" true
    (Util.Resilience.guard ~stage:"s" (fun () -> 42) = Ok 42);
  Alcotest.(check int) "still one" 1 (List.length (Util.Resilience.recorded ()));
  Util.Resilience.reset ();
  Alcotest.(check int) "reset clears" 0
    (List.length (Util.Resilience.recorded ()))

let guard_fail_fast_reraises () =
  Util.Resilience.set_fail_fast true;
  Fun.protect
    ~finally:(fun () -> Util.Resilience.set_fail_fast false)
    (fun () ->
      match Util.Resilience.guard ~stage:"s" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "fail-fast must re-raise")

let deadline_basics () =
  let d = Util.Resilience.deadline_in 0.0 in
  Alcotest.(check bool) "zero deadline expired" true (Util.Resilience.expired d);
  let d = Util.Resilience.deadline_in 3600.0 in
  Alcotest.(check bool) "far deadline alive" false (Util.Resilience.expired d)

(* ---------------- fault injection ---------------- *)

let count_fires rate seed n =
  Util.Resilience.set_injection
    (Some (Util.Resilience.inject ~rate ~seed));
  Fun.protect
    ~finally:(fun () -> Util.Resilience.set_injection None)
    (fun () ->
      let fired = ref 0 in
      for _ = 1 to n do
        match Util.Resilience.checkpoint ~stage:"t" () with
        | () -> ()
        | exception Util.Resilience.Injected _ -> incr fired
      done;
      !fired)

let injection_rates () =
  Alcotest.(check int) "rate 0 never fires" 0 (count_fires 0.0 42 1000);
  Alcotest.(check int) "rate 1 always fires" 100 (count_fires 1.0 42 100);
  let a = count_fires 0.3 42 1000 in
  let b = count_fires 0.3 42 1000 in
  Alcotest.(check int) "deterministic from the seed" a b;
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.3 fires ~300/1000 (got %d)" a)
    true
    (a > 200 && a < 400)

let injected_failure_carries_stage () =
  Util.Resilience.set_injection (Some (Util.Resilience.inject ~rate:1.0 ~seed:1));
  Fun.protect
    ~finally:(fun () -> Util.Resilience.set_injection None)
    (fun () ->
      Util.Resilience.reset ();
      match
        Util.Resilience.guard ~nf:"x" ~stage:"outer" (fun () ->
            Util.Resilience.checkpoint ~nf:"x" ~stage:"inner" ();
            0)
      with
      | Ok _ -> Alcotest.fail "rate 1.0 must fire"
      | Error f ->
          (* the failure names the checkpoint, not the enclosing guard *)
          Alcotest.(check string) "injection stage" "inner" f.Util.Resilience.stage;
          Util.Resilience.reset ())

(* ---------------- driver kill accounting ---------------- *)

let run_driver ?(heap_bytes = 4096) prog =
  let cfg = Ir.Lower.program prog in
  let mem =
    Ir.Memory.create ~regions:cfg.Ir.Cfg.regions ~heap_bytes
      ~inject:(fun v -> Ir.Expr.Const v)
  in
  let config =
    { (Symbex.Driver.default_config ~n_packets:1 costs) with
      instr_budget = 200_000 }
  in
  Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom) config

let kill_count stats label =
  match List.assoc_opt label stats.Symbex.Driver.kill_reasons with
  | Some n -> n
  | None -> 0

let driver_survives_heap_exhaustion () =
  (* allocate 4KiB per iteration from a 4KiB heap: the second alloc must
     kill the state, not the driver *)
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
  let r = run_driver prog in
  Alcotest.(check bool) "state killed" true (r.stats.Symbex.Driver.killed >= 1);
  Alcotest.(check bool) "heap-exhausted accounted" true
    (kill_count r.stats "heap-exhausted" >= 1);
  Alcotest.(check bool) "degraded: a fault kill occurred" true
    r.stats.Symbex.Driver.degraded

let driver_survives_out_of_bounds () =
  (* address 100 lies below every region: a memory fault, not a crash *)
  let prog =
    program ~name:"t" ~entry:"process"
      [ func "process" [ "dst_ip" ] [ load8 "x" (i 100); ret (v "x") ] ]
  in
  let r = run_driver prog in
  Alcotest.(check bool) "memory-fault accounted" true
    (kill_count r.stats "memory-fault" >= 1);
  Alcotest.(check bool) "degraded" true r.stats.Symbex.Driver.degraded

let driver_clean_run_not_degraded () =
  let prog =
    program ~name:"t" ~entry:"process"
      [ func "process" [ "dst_ip" ] [ ret (v "dst_ip") ] ]
  in
  let r = run_driver prog in
  Alcotest.(check bool) "no kills" true (r.stats.Symbex.Driver.killed = 0);
  Alcotest.(check (list (pair string int))) "no kill reasons" []
    r.stats.Symbex.Driver.kill_reasons;
  Alcotest.(check bool) "not degraded" false r.stats.Symbex.Driver.degraded

(* A spent safety deadline stops exploration before the first slice: the
   run is degraded, and counted where the CLI looks to pick exit code 2. *)
let driver_deadline_cut () =
  let cfg =
    Ir.Lower.program
      (program ~name:"t" ~entry:"process"
         [ func "process" [ "dst_ip" ] [ ret (v "dst_ip") ] ])
  in
  let mem =
    Ir.Memory.create ~regions:cfg.Ir.Cfg.regions ~heap_bytes:4096
      ~inject:(fun v -> Ir.Expr.Const v)
  in
  let config =
    { (Symbex.Driver.default_config ~n_packets:1 costs) with time_budget = 0. }
  in
  let cuts = Symbex.Driver.deadline_cuts () in
  let r = Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom) config in
  Alcotest.(check int) "nothing executed" 0
    r.stats.Symbex.Driver.executed_instrs;
  Alcotest.(check bool) "degraded" true r.stats.Symbex.Driver.degraded;
  Alcotest.(check int) "deadline cut counted" (cuts + 1)
    (Symbex.Driver.deadline_cuts ())

(* ---------------- Contention.load_result ---------------- *)

let write_file content =
  let path = Filename.temp_file "castan" ".sets" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let contention_load_errors () =
  let check_error content fragment =
    let path = write_file content in
    let r = Cache.Contention.load_result path in
    Sys.remove path;
    match r with
    | Ok _ -> Alcotest.fail ("expected parse error for " ^ fragment)
    | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S mentions %S" reason fragment)
          true (contains ~sub:fragment reason)
  in
  check_error "" "empty file";
  check_error "bogus header\n" "bad header";
  check_error "castan-contention-sets v1 alpha=20 line=64 classes=1\nnope\n"
    "malformed entry";
  check_error "castan-contention-sets v1 alpha=20 line=64 classes=1\n65 0\n"
    "misaligned offset";
  (* line numbers are part of the message *)
  check_error "castan-contention-sets v1 alpha=20 line=64 classes=1\n64 0\n65 0\n"
    "line 3";
  (* missing files are errors, not exceptions *)
  (match Cache.Contention.load_result "/nonexistent/castan.sets" with
  | Ok _ -> Alcotest.fail "expected missing-file error"
  | Error _ -> ());
  (* the raising wrapper still raises Failure *)
  let path = write_file "junk\n" in
  (match Cache.Contention.load path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "load must raise Failure");
  Sys.remove path;
  (* well-formed files round-trip *)
  let path =
    write_file "castan-contention-sets v1 alpha=20 line=64 classes=2\n0 0\n64 1\n"
  in
  (match Cache.Contention.load_result path with
  | Ok t ->
      Alcotest.(check int) "alpha" 20 t.Cache.Contention.alpha;
      Alcotest.(check int) "classes" 2 t.Cache.Contention.n_classes
  | Error e -> Alcotest.fail ("unexpected error: " ^ e));
  Sys.remove path

(* ---------------- per-NF isolation under injected faults ---------------- *)

let injection_config =
  {
    Castan.Experiment.quick_config with
    samples = 401;
    analysis_instrs = 3_000;
    use_contention_model = false;
  }

let harness_tables_survive_injection () =
  Util.Resilience.reset ();
  Util.Resilience.set_injection
    (Some (Util.Resilience.inject ~rate:0.3 ~seed:42));
  Fun.protect
    ~finally:(fun () ->
      Util.Resilience.set_injection None;
      Util.Resilience.reset ())
    (fun () ->
      let nfs = List.filter (fun n -> n <> "nop") Nf.Registry.names in
      (* every NF is either a valid campaign or a structured failure — by
         construction of the result type an exception escaping a campaign
         would have aborted the test *)
      let campaigns = Castan.Experiment.run_all injection_config nfs in
      let failed = List.filter (fun (_, r) -> Result.is_error r) campaigns in
      Alcotest.(check bool)
        (Printf.sprintf "rate 0.3 fails some NFs (got %d/%d)"
           (List.length failed) (List.length nfs))
        true
        (failed <> []);
      List.iter
        (fun (_, r) ->
          match r with
          | Ok _ -> ()
          | Error f ->
              Alcotest.(check bool) "failure names a pipeline stage" true
                (List.mem f.Util.Resilience.stage [ "symbex"; "testbed" ]))
        campaigns;
      (* failures are recorded for the end-of-run summary *)
      Alcotest.(check int) "one record per failed NF"
        (List.length failed) (List.length (Util.Resilience.recorded ()));
      (* the tables render with failed:<stage> cells instead of raising *)
      ignore (Castan.Harness.run_id injection_config campaigns "table1" : float);
      ignore (Castan.Harness.run_id injection_config campaigns "table4" : float);
      (* the failure summary renders *)
      Castan.Report.print_failure_summary (Util.Resilience.recorded ()))

let expand_id_groups () =
  Alcotest.(check (list string)) "tables"
    [ "table1"; "table2"; "table3"; "table4"; "table5" ]
    (Castan.Harness.expand_id "tables");
  Alcotest.(check int) "figures" 12
    (List.length (Castan.Harness.expand_id "figures"));
  Alcotest.(check (list string)) "all expands to every id"
    Castan.Harness.ids
    (Castan.Harness.expand_id "all");
  Alcotest.(check (list string)) "plain id unchanged" [ "fig4" ]
    (Castan.Harness.expand_id "fig4")

let tests =
  [
    Alcotest.test_case "guard contains + records" `Quick guard_contains_and_records;
    Alcotest.test_case "guard fail-fast re-raises" `Quick guard_fail_fast_reraises;
    Alcotest.test_case "deadline basics" `Quick deadline_basics;
    Alcotest.test_case "injection rates" `Quick injection_rates;
    Alcotest.test_case "injected failure stage" `Quick injected_failure_carries_stage;
    Alcotest.test_case "driver: heap exhaustion kills state" `Quick
      driver_survives_heap_exhaustion;
    Alcotest.test_case "driver: OOB load kills state" `Quick
      driver_survives_out_of_bounds;
    Alcotest.test_case "driver: clean run not degraded" `Quick
      driver_clean_run_not_degraded;
    Alcotest.test_case "driver: deadline cut is degraded" `Quick
      driver_deadline_cut;
    Alcotest.test_case "contention load errors" `Quick contention_load_errors;
    Alcotest.test_case "tables survive fault injection" `Slow
      harness_tables_survive_injection;
    Alcotest.test_case "expand_id groups" `Quick expand_id_groups;
  ]
