(* Tests for the resilience layer: guards, structured kill accounting and
   the safety deadline in the driver, and per-NF isolation of the
   experiment harness under real failures. *)

open Ir.Dsl

let geom = Cache.Geometry.xeon_e5_2667v2

(* ---------------- guards ---------------- *)

let guard_contains_and_records () =
  (match
     Util.Resilience.guard ~nf:"lpm-btrie" ~stage:"solving" (fun () ->
         failwith "boom")
   with
  | Ok _ -> Alcotest.fail "expected containment"
  | Error f ->
      Alcotest.(check bool) "the failure records stage, NF and reason" true
        (f
        = Util.Resilience.failure ~nf:"lpm-btrie" ~stage:"solving"
            (Printexc.to_string (Failure "boom"))));
  Alcotest.(check bool) "ok path passes the value through" true
    (Util.Resilience.guard ~stage:"s" (fun () -> 42) = Ok 42)

let guard_fail_fast_reraises () =
  Util.Resilience.set_fail_fast true;
  Fun.protect
    ~finally:(fun () -> Util.Resilience.set_fail_fast false)
    (fun () ->
      match Util.Resilience.guard ~stage:"s" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "fail-fast must re-raise")

(* ---------------- driver kill accounting ---------------- *)

let run_driver ?(heap_bytes = 4096) prog =
  let cfg = Ir.Lower.program prog in
  let mem =
    Ir.Memory.create ~regions:cfg.Ir.Cfg.regions ~heap_bytes
      ~inject:(fun v -> Ir.Expr.Const v)
  in
  Symbex.Driver.run cfg ~mem ~cache:(Cache.Model.baseline geom)
    (Test_symbex.driver_config 1)

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
  let config = { (Test_symbex.driver_config 1) with time_budget = 0. } in
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
  (* a class id must index one of the header's classes *)
  check_error "castan-contention-sets v1 alpha=20 line=64 classes=1\n0 5\n"
    "line 2: class 5 out of range (classes=1)";
  check_error "castan-contention-sets v1 alpha=20 line=64 classes=1\n0 -3\n"
    "line 2: class -3 out of range";
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

(* ---------------- per-NF isolation under real failures ---------------- *)

(* Two real failures: an unknown NF fails its campaign's symbex stage, and
   a negative sample count fails lpm-btrie's testbed stage after its
   analysis ran ([Dut.replay]'s [Array.make] raises).  The tables then
   render a campaign list of those and of failures built as values, with a
   [failed:<stage>] cell per NF, and no entry fails. *)
let harness_tables_survive_failures () =
  let config =
    { Castan.Experiment.quick_config with samples = -1; analysis_instrs = 500 }
  in
  let real =
    Castan.Experiment.run_all config ~cache:Baseline
      [ "no-such-nf"; "lpm-btrie" ]
  in
  let failures =
    List.map
      (function
        | _, Ok _ -> Alcotest.fail "expected a failed campaign"
        | _, Error f -> f)
      real
  in
  Alcotest.(check (list (pair (option string) string)))
    "each failure names its NF and stage"
    [ (Some "no-such-nf", "symbex"); (Some "lpm-btrie", "testbed") ]
    (List.map
       (fun f -> (f.Util.Resilience.nf, f.Util.Resilience.stage))
       failures);
  let campaigns =
    List.map
      (fun n ->
        match List.assoc_opt n real with
        | Some r -> (n, r)
        | None ->
            (n, Error (Util.Resilience.failure ~nf:n ~stage:"symbex" "built")))
      (List.filter (fun n -> n <> "nop") Nf.Registry.names)
  in
  let no_sets = lazy (Alcotest.fail "tables discover nothing") in
  List.iter
    (fun id ->
      match Castan.Harness.run_id config no_sets campaigns id with
      | Ok (), _ -> ()
      | Error f, _ -> Alcotest.fail (Util.Resilience.to_string f))
    (Castan.Harness.expand_id "tables" @ [ "fig7" ]);
  Castan.Report.print_failure_summary failures

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
    Alcotest.test_case "driver: heap exhaustion kills state" `Quick
      driver_survives_heap_exhaustion;
    Alcotest.test_case "driver: OOB load kills state" `Quick
      driver_survives_out_of_bounds;
    Alcotest.test_case "driver: clean run not degraded" `Quick
      driver_clean_run_not_degraded;
    Alcotest.test_case "driver: deadline cut is degraded" `Quick
      driver_deadline_cut;
    Alcotest.test_case "contention load errors" `Quick contention_load_errors;
    Alcotest.test_case "tables survive fault injection" `Quick
      harness_tables_survive_failures;
    Alcotest.test_case "expand_id groups" `Quick expand_id_groups;
  ]
