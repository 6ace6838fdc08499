(* The castan command-line tool.

   Subcommands mirror the workflow of the paper's artifact:
     castan list                      -- the 11 evaluation NFs
     castan analyze <nf> -o out.pcap  -- synthesize an adversarial workload
     castan probe-cache               -- reverse-engineer contention sets
     castan replay <nf> <pcap>        -- measure a workload on the testbed
     castan profile --nf <nf>         -- attribute an NF's cycles to blocks
     castan dump <nf>                 -- print an NF's NFIR listing
     castan experiment <id>           -- regenerate a table/figure at
                                         --quick, default or --full scale;
                                         --metrics records its wall times

   `castan profile` attributes the DUT replay only; with --metrics its
   blocks land in the run manifest's "profile" section, the one record of
   a profile.  Manifests, ktest files and sample dumps are written
   atomically (Util.Durable); a killed run is re-run, not resumed. *)

open Cmdliner

let nf_arg =
  let doc = "Network function name (see `castan list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NF" ~doc)

(* ---------------- telemetry plumbing ---------------- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Stream hierarchical spans as Chrome trace_event JSON objects, \
               one per line, to FILE (wrap in [...] or `jq -s .' to load in \
               chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write a run manifest (tool/git revision, configuration, and \
               the final metrics counters) as JSON to FILE at exit.")

let log_level_arg =
  let level_conv =
    Arg.enum
      [ ("quiet", Obs.Log.Quiet); ("info", Obs.Log.Info); ("debug", Obs.Log.Debug) ]
  in
  Arg.(value & opt level_conv Obs.Log.Quiet & info [ "log-level" ] ~docv:"LEVEL"
         ~doc:"Diagnostic verbosity on stderr: $(b,quiet) (default, output \
               identical to an un-instrumented run), $(b,info) or \
               $(b,debug).")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel sections (per-NF campaigns, \
               per-workload measurements, rainbow-table shards).  Output is \
               bit-identical for every N, except that trace and log lines \
               from concurrent tasks interleave; $(b,-j 1) runs the exact \
               serial code path.  Default: the machine's recommended \
               domain count.")

(* 0 = unset sentinel: the default must be computed, not baked into the
   manpage. *)
let set_jobs j =
  Util.Pool.set_default_jobs
    (if j <= 0 then Util.Pool.recommended_jobs () else j)

(* Packet and instruction counts: a non-positive value is a usage error
   (exit 124), refused before any work or output. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A header-only pcap leaves nothing to replay; refuse it by name. *)
let load_workload path =
  let w = Testbed.Workload.load_pcap ~name:path path in
  if Testbed.Workload.length w = 0 then begin
    Printf.eprintf "castan: %s holds no packets\n%!" path;
    exit 1
  end;
  w

(* A caught SIGINT/SIGTERM becomes a clean [exit], so the [at_exit]
   telemetry/manifest flushes run and an interrupted run still leaves
   complete --metrics/--trace files.  Conventional 128+signo codes. *)
let install_signal_handlers () =
  let clean code _ = exit code in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (clean 130))
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle (clean 143))
  with Invalid_argument _ | Sys_error _ -> ()

(* Sinks are installed before the run; the manifest (which snapshots the
   metrics) is written and the trace sink closed from [at_exit], so the
   telemetry files are complete even on degraded (exit 2) runs. *)
let install_telemetry ~trace ~metrics ~log_level ~manifest =
  Obs.Log.set_level log_level;
  Option.iter (fun path -> Obs.Trace.set_sink (Obs.Sink.file path)) trace;
  if Option.is_some metrics then Obs.Metrics.set_active true;
  if Option.is_some trace || Option.is_some metrics then
    at_exit (fun () ->
        (match metrics with
        | Some path ->
            Castan.Manifest.write ~path (manifest ());
            Obs.Log.info "wrote metrics manifest %s" path
        | None -> ());
        Obs.Trace.close ())

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let nf = Nf.Registry.find name in
        Printf.printf "%-22s %s\n" name nf.Nf.Nf_def.descr)
      Nf.Registry.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the evaluation network functions")
    Term.(const run $ const ())

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the synthesized workload as a PCAP file.")
  in
  let packets =
    Arg.(value & opt (some int) None & info [ "n"; "packets" ] ~docv:"N"
           ~doc:"Number of packets to synthesize (default: the paper's size).")
  in
  let instrs =
    Arg.(value
         & opt positive_int (Castan.Analyze.default_config ()).instr_budget
         & info [ "instrs" ] ~docv:"N"
             ~doc:"Symbolic-execution budget in executed instructions.")
  in
  let no_contention =
    Arg.(value & flag & info [ "no-cache-model" ]
           ~doc:"Skip contention-set discovery (baseline cache model).")
  in
  let cache_model_file =
    Arg.(value & opt (some string) None & info [ "cache-model" ] ~docv:"FILE"
           ~doc:"Load contention sets saved by `probe-cache -o' instead of                  re-discovering them.")
  in
  let ktest =
    Arg.(value & opt (some string) None & info [ "ktest" ] ~docv:"PREFIX"
           ~doc:"Also write PREFIX.ktest and PREFIX.metrics (the analysis \
                 outputs of the paper's §4).")
  in
  let run name output packets instrs no_contention cache_model_file ktest
      jobs trace metrics log_level =
    set_jobs jobs;
    install_telemetry ~trace ~metrics ~log_level ~manifest:(fun () ->
        Castan.Manifest.make ~extra:[ ("nf", Obs.Json.Str name) ] ());
    let nf = Nf.Registry.find name in
    let cache =
      match cache_model_file with
      | Some path -> (
          match Cache.Contention.load_result path with
          | Ok sets -> Castan.Analyze.Contention_sets sets
          | Error reason ->
              Printf.eprintf "castan: cannot load cache model: %s\n%!" reason;
              exit 1)
      | None ->
          if no_contention then Castan.Analyze.Baseline
          else
            Castan.Analyze.Contention_sets
              (Castan.Analyze.discover_contention_sets ())
    in
    let config =
      {
        (Castan.Analyze.default_config ~cache ()) with
        n_packets = packets;
        instr_budget = instrs;
      }
    in
    let o =
      Obs.Trace.with_span "run"
        ~args:[ ("nf", Obs.Json.Str name) ]
        (fun () -> Castan.Analyze.run ~config nf)
    in
    Printf.printf
      "%s: %d packets, predicted %d cycles total, %d/%d havocs reconciled, \
       %d states explored in %d instructions\n"
      name
      (Testbed.Workload.length o.Castan.Analyze.workload)
      o.Castan.Analyze.predicted_cost o.Castan.Analyze.reconciled
      o.Castan.Analyze.n_havocs o.Castan.Analyze.stats.Symbex.Driver.explored
      o.Castan.Analyze.stats.Symbex.Driver.executed_instrs;
    List.iteri
      (fun k (m : Symbex.State.metrics) ->
        Printf.printf "  pkt %2d predicted: %s\n" k
          (Format.asprintf "%a" Symbex.State.pp_metrics m))
      o.Castan.Analyze.predicted;
    Array.iter
      (fun p -> Printf.printf "  %s\n" (Nf.Packet.to_string p))
      o.Castan.Analyze.workload.Testbed.Workload.packets;
    (match output with
    | Some path ->
        Testbed.Workload.save_pcap o.Castan.Analyze.workload path;
        Printf.printf "wrote %s\n" path
    | None -> ());
    (match ktest with
    | Some prefix ->
        List.iter (Printf.printf "wrote %s\n") (Castan.Ktest.write ~prefix o)
    | None -> ());
    (* Degraded, not failed: all artifacts above are written first.  A
       run the safety deadline cut short still completes, but its result
       depends on host speed, so the exit code says so. *)
    if Symbex.Driver.deadline_cuts () > 0 then begin
      Printf.printf
        "completed degraded: the %.0f s safety deadline cut symbex short\n%!"
        config.time_budget;
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Synthesize an adversarial workload for an NF")
    Term.(
      const run $ nf_arg $ output $ packets $ instrs $ no_contention
      $ cache_model_file $ ktest $ jobs_arg $ trace_arg $ metrics_arg
      $ log_level_arg)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let nf_name =
    Arg.(required & opt (some string) None & info [ "nf" ] ~docv:"NF"
           ~doc:"Network function to profile (a unique prefix of a `castan \
                 list' name is accepted, e.g. $(b,nat)).")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"PCAP"
           ~doc:"Replay this workload instead of generated uniform-random \
                 traffic.")
  in
  let samples =
    Arg.(value & opt positive_int 2_000 & info [ "samples" ] ~docv:"N"
           ~doc:"Packets to replay through the DUT.")
  in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Synthesize the workload with the full CASTAN analysis \
                 instead of generating generic traffic.  Only the replay \
                 is attributed to blocks; symbolic exploration and solver \
                 time appear as wall-time buckets.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the generated workload.")
  in
  let top =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N"
           ~doc:"Rows in the hot-block table.")
  in
  (* Exact name, else unique-or-first prefix match, so `--nf nat' works. *)
  let resolve name =
    if List.mem name Nf.Registry.names then name
    else
      let matches =
        List.filter
          (fun n ->
            String.length n >= String.length name
            && String.sub n 0 (String.length name) = name)
          Nf.Registry.names
      in
      match matches with
      | [] ->
          Printf.eprintf "castan: unknown NF %s (known: %s)\n%!" name
            (String.concat ", " Nf.Registry.names);
          exit 1
      | [ one ] -> one
      | first :: _ ->
          Printf.printf "note: %s matches %s; profiling %s\n" name
            (String.concat ", " matches) first;
          first
  in
  let run name workload samples analyze seed top jobs trace metrics log_level
      =
    set_jobs jobs;
    let name = resolve name in
    let nf = Nf.Registry.find name in
    let program = nf.Nf.Nf_def.program in
    install_telemetry ~trace ~metrics ~log_level ~manifest:(fun () ->
        Castan.Manifest.make
          ~extra:
            [
              ("nf", Obs.Json.Str name);
              ("profile", Castan.Profile_report.to_json ~nf:name program);
            ]
          ());
    Obs.Profile.reset ();
    Obs.Profile.set_enabled true;
    let w =
      match workload with
      | Some path -> load_workload path
      | None ->
          if analyze then begin
            let config =
              { (Castan.Analyze.default_config
                   ~cache:
                     (Castan.Analyze.Contention_sets
                        (Castan.Analyze.discover_contention_sets ()))
                   ())
                with seed }
            in
            (Castan.Analyze.run ~config nf).Castan.Analyze.workload
          end
          else
            Testbed.Workload.shape nf.Nf.Nf_def.shape
              (Testbed.Traffic.unirand ~scale:`Quick ~seed ())
    in
    let dut = Testbed.Dut.create nf in
    ignore (Testbed.Dut.replay dut w ~samples : Testbed.Dut.sample array);
    Obs.Profile.set_enabled false;
    Printf.printf "%s x %s: %d packets replayed %d times\n" name
      w.Testbed.Workload.name
      (Testbed.Workload.length w)
      samples;
    print_string (Castan.Profile_report.table ~nf:name ~top program);
    List.iter
      (fun (bucket, dt) -> Printf.printf "  %-8s %.3f s\n" bucket dt)
      (Obs.Profile.timers ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute an NF's replayed cycles to basic blocks (table; \
             with --metrics, the blocks as JSON in the run manifest)")
    Term.(
      const run $ nf_name $ workload $ samples $ analyze $ seed $ top $ jobs_arg
      $ trace_arg $ metrics_arg $ log_level_arg)

(* ---------------- probe-cache ---------------- *)

let probe_cmd =
  let pool =
    Arg.(value & opt int 256 & info [ "pool" ] ~docv:"N"
           ~doc:"Candidate addresses per 1GB page.")
  in
  let pages =
    Arg.(value & opt int 2 & info [ "pages" ] ~docv:"N" ~doc:"1GB pages probed.")
  in
  let reboots =
    Arg.(value & opt int 2 & info [ "reboots" ] ~docv:"N"
           ~doc:"Simulated reboots (fresh page placements).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Persist the sets for later `analyze --cache-model FILE' runs.")
  in
  let run pool pages reboots output =
    let t0 = Unix.gettimeofday () in
    let sets =
      Castan.Analyze.discover_contention_sets ~pool ~pages ~reboots ()
    in
    Printf.printf "discovered %d consistent contention sets in %.1fs\n"
      sets.Cache.Contention.n_classes
      (Unix.gettimeofday () -. t0);
    (match output with
    | Some path ->
        Cache.Contention.save sets path;
        Printf.printf "wrote %s\n" path
    | None -> ());
    List.iter
      (fun (cls, members) ->
        Printf.printf "  set %2d: %d members, first offsets %s\n" cls
          (List.length members)
          (String.concat ", "
             (List.filteri (fun i _ -> i < 4) members
             |> List.map (Printf.sprintf "0x%x"))))
      (Cache.Contention.classes sets)
  in
  Cmd.v
    (Cmd.info "probe-cache"
       ~doc:"Reverse-engineer L3 contention sets on the simulated machine")
    Term.(const run $ pool $ pages $ reboots $ output)

(* ---------------- replay ---------------- *)

let replay_cmd =
  let pcap =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PCAP"
           ~doc:"Workload to replay.")
  in
  let samples =
    Arg.(value & opt positive_int 20_000 & info [ "samples" ] ~docv:"N"
           ~doc:"Packets to measure.")
  in
  let samples_out =
    Arg.(value & opt (some string) None & info [ "samples-out" ] ~docv:"FILE"
           ~doc:"Dump the raw per-packet samples (cycles, instrs, L3 misses, \
                 verdict — one line each) to FILE.  The dump is a pure \
                 function of the NF, workload and sample count: byte-\
                 identical with and without $(b,--trace)/$(b,--metrics), \
                 which is what the replay-smoke CI leg pins.")
  in
  let run name pcap samples samples_out trace metrics log_level =
    let nf = Nf.Registry.find name in
    let w = load_workload pcap in
    install_telemetry ~trace ~metrics ~log_level ~manifest:(fun () ->
        Castan.Manifest.make ~extra:[ ("nf", Obs.Json.Str name) ] ());
    let nop = Testbed.Tg.nop_baseline ~samples () in
    let m = Testbed.Tg.measure ~samples nf w in
    Printf.printf "%s x %s (%d packets, %d flows):\n" name pcap
      (Testbed.Workload.length w) (Testbed.Workload.flows w);
    Printf.printf "  median latency   %.0f ns (NOP %+.0f)\n"
      (Testbed.Tg.median_latency_ns m)
      (Testbed.Tg.deviation_from_nop_ns m ~nop);
    Printf.printf "  median instrs    %d /pkt\n" (Testbed.Tg.median_instrs m);
    Printf.printf "  median L3 misses %d /pkt\n" (Testbed.Tg.median_l3_misses m);
    Printf.printf "  max throughput   %.2f Mpps (<1%% loss)\n"
      (Testbed.Tg.max_throughput_mpps m);
    match samples_out with
    | Some path ->
        let buf = Buffer.create (Array.length m.Testbed.Tg.samples * 24) in
        Array.iter
          (fun (s : Testbed.Dut.sample) ->
            Buffer.add_string buf
              (Printf.sprintf "%d %d %d %d\n" s.cycles s.instrs s.l3_misses
                 s.ret))
          m.Testbed.Tg.samples;
        Util.Durable.write_string ~path (Buffer.contents buf);
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Measure a PCAP workload against an NF on the testbed")
    Term.(
      const run $ nf_arg $ pcap $ samples $ samples_out $ trace_arg
      $ metrics_arg $ log_level_arg)

(* ---------------- dump ---------------- *)

let dump_cmd =
  let costs_flag =
    Arg.(value & flag & info [ "costs" ]
           ~doc:"Also print the potential-cost annotation per instruction.")
  in
  let run name costs_flag =
    let nf = Nf.Registry.find name in
    let prog = nf.Nf.Nf_def.program in
    if not costs_flag then Format.printf "%a@." Ir.Cfg.pp prog
    else begin
      let annot =
        Symbex.Cost.annotate
          (Symbex.Costs.default Cache.Geometry.xeon_e5_2667v2)
          prog
      in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) prog.Ir.Cfg.funcs [] in
      List.iter
        (fun fname ->
          let f = Ir.Cfg.func prog fname in
          Format.printf "fn %s  (full cost %d cycles)@." fname
            (Symbex.Cost.full_cost annot fname);
          Array.iteri
            (fun pc instr ->
              Format.printf "  %3d: [%6d] %a@." pc
                (Symbex.Cost.to_return annot ~func:fname ~pc)
                Ir.Cfg.pp_instr instr)
            f.Ir.Cfg.body)
        (List.sort compare names)
    end
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print an NF's NFIR listing (with --costs, its §3.4 annotation)")
    Term.(const run $ nf_arg $ costs_flag)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id, e.g. fig4 or table1 (or a group: tables, \
                 figures, all); `castan experiment list' enumerates them.")
  in
  let scale =
    Arg.(value
         & vflag Castan.Experiment.default_config
             [
               (Castan.Experiment.quick_config,
                info [ "quick" ] ~doc:"Scaled-down workloads.");
               ({ Castan.Experiment.default_config with
                  scale = `Paper; samples = 40_000 },
                info [ "full" ]
                  ~doc:"Paper-scale workloads and 40,000 latency samples \
                        per workload.");
             ])
  in
  let fail_fast =
    Arg.(value & flag & info [ "fail-fast" ]
           ~doc:"Abort on the first stage failure instead of containing it \
                 (exit code 1).")
  in
  let run id config fail_fast jobs trace metrics log_level =
    set_jobs jobs;
    Util.Resilience.reset ();
    Util.Resilience.set_fail_fast fail_fast;
    if id = "list" then
      List.iter
        (fun (e : Castan.Harness.entry) ->
          Printf.printf "%-26s %s\n" e.id e.descr)
        Castan.Harness.all
    else begin
      let ids = Castan.Harness.expand_id id in
      (* Wall seconds per entry in run order, the campaigns first when the
         ids need any: the manifest's experiments_timed. *)
      let timed = ref [] in
      let record id seconds = timed := (id, seconds) :: !timed in
      install_telemetry ~trace ~metrics ~log_level ~manifest:(fun () ->
          let entry (id, seconds) =
            Obs.Json.Obj
              [ ("id", Obs.Json.Str id); ("seconds", Obs.Json.Float seconds) ]
          in
          let timed_json = Obs.Json.List (List.rev_map entry !timed) in
          Castan.Manifest.make ~ids ~config
            ~extra:[ ("experiments_timed", timed_json) ]
            ());
      (* Exit codes: 0 = clean, 2 = completed but degraded (failures were
         contained and summarized), 1 = fatal (fail-fast or unknown id). *)
      match
        Obs.Trace.with_span "run"
          ~args:[ ("id", Obs.Json.Str id) ]
          (fun () ->
            (* Every campaign the ids need runs once, here, at every -j;
               the entries only read the results. *)
            let campaigns =
              match Castan.Harness.campaign_nfs ids with
              | [] -> []
              | nfs ->
                  let campaigns, dt =
                    Obs.Trace.timed "campaigns"
                      ~args:[ ("nfs", Obs.Json.Int (List.length nfs)) ]
                      (fun () -> Castan.Experiment.run_all config nfs)
                  in
                  record "campaigns" dt;
                  Printf.eprintf "[campaigns done in %.1fs]\n%!" dt;
                  campaigns
            in
            List.iter
              (fun i -> record i (Castan.Harness.run_id config campaigns i))
              ids)
      with
      | () ->
          let failures = Util.Resilience.recorded () in
          let cuts = Symbex.Driver.deadline_cuts () in
          if failures <> [] || cuts > 0 then begin
            if failures <> [] then
              Castan.Report.print_failure_summary failures;
            Printf.printf
              "completed degraded: %d contained failure(s), %d analyses cut \
               by the safety deadline\n%!"
              (List.length failures) cuts;
            exit 2
          end
      | exception e ->
          let failures = Util.Resilience.recorded () in
          Castan.Report.print_failure_summary failures;
          Printf.eprintf "castan: fatal: %s\n%!" (Printexc.to_string e);
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables, figures or ablations")
    Term.(
      const run $ id $ scale $ fail_fast $ jobs_arg $ trace_arg
      $ metrics_arg $ log_level_arg)

let () =
  install_signal_handlers ();
  let doc = "CASTAN: automated synthesis of adversarial workloads for NFs" in
  let info = Cmd.info "castan" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ list_cmd; analyze_cmd; profile_cmd; probe_cmd; replay_cmd; dump_cmd;
      experiment_cmd ]))
