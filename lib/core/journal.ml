type identity = Manifest.identity = {
  git : string;
  config_digest : string;
  seed : int;
  jobs : int;
  injection : string;
}

type stats = {
  cells_written : int;
  cells_reused : int;
  hydrated : int;
  stale : int;
  resumes : int;
}

let zero_stats =
  { cells_written = 0; cells_reused = 0; hydrated = 0; stale = 0; resumes = 0 }

(* Mirrored into the metrics registry so `--metrics` manifests carry the
   journal's effectiveness alongside everything else. *)
let m_written = Obs.Metrics.counter "journal.cells_written"
let m_reused = Obs.Metrics.counter "journal.cells_reused"
let m_resumes = Obs.Metrics.counter "journal.resumes"

let current_identity (config : Experiment.config) =
  Manifest.current_identity ~config ()

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name j =
  match Obs.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int = function
  | Obs.Json.Int i -> Ok i
  | _ -> Error "expected int"

let as_float = function
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int i -> Ok (float_of_int i)
  | _ -> Error "expected float"

let as_str = function
  | Obs.Json.Str s -> Ok s
  | _ -> Error "expected string"

let as_bool = function
  | Obs.Json.Bool b -> Ok b
  | _ -> Error "expected bool"

let as_list = function
  | Obs.Json.List l -> Ok l
  | _ -> Error "expected list"

let int_field name j = Result.bind (field name j) as_int
let float_field name j = Result.bind (field name j) as_float
let str_field name j = Result.bind (field name j) as_str
let bool_field name j = Result.bind (field name j) as_bool
let list_field name j = Result.bind (field name j) as_list

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let identity_json = Manifest.identity_json
let identity_of_json = Manifest.identity_of_json

let sample_json (s : Testbed.Dut.sample) =
  Obs.Json.List
    [
      Obs.Json.Int s.Testbed.Dut.cycles;
      Obs.Json.Int s.Testbed.Dut.instrs;
      Obs.Json.Int s.Testbed.Dut.l3_misses;
      Obs.Json.Int s.Testbed.Dut.ret;
    ]

let sample_of_json j =
  let* l = as_list j in
  match l with
  | [ a; b; c; d ] ->
      let* cycles = as_int a in
      let* instrs = as_int b in
      let* l3_misses = as_int c in
      let* ret = as_int d in
      Ok { Testbed.Dut.cycles; instrs; l3_misses; ret }
  | _ -> Error "sample: expected 4 ints"

let measurement_json (m : Testbed.Tg.measurement) =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str m.Testbed.Tg.workload);
      ( "latencies_ns",
        Obs.Json.List
          (Array.to_list
             (Array.map (fun f -> Obs.Json.Float f) m.Testbed.Tg.latencies_ns))
      );
      ( "samples",
        Obs.Json.List (Array.to_list (Array.map sample_json m.Testbed.Tg.samples))
      );
    ]

let measurement_of_json j =
  let* workload = str_field "workload" j in
  let* lats = list_field "latencies_ns" j in
  let* lats = map_result as_float lats in
  let* samples = list_field "samples" j in
  let* samples = map_result sample_of_json samples in
  Ok
    {
      Testbed.Tg.workload;
      latencies_ns = Array.of_list lats;
      samples = Array.of_list samples;
    }

let packet_json (p : Nf.Packet.t) =
  Obs.Json.List
    [
      Obs.Json.Int p.Nf.Packet.src_ip;
      Obs.Json.Int p.Nf.Packet.dst_ip;
      Obs.Json.Int p.Nf.Packet.proto;
      Obs.Json.Int p.Nf.Packet.src_port;
      Obs.Json.Int p.Nf.Packet.dst_port;
    ]

let packet_of_json j =
  let* l = as_list j in
  match l with
  | [ a; b; c; d; e ] ->
      let* src_ip = as_int a in
      let* dst_ip = as_int b in
      let* proto = as_int c in
      let* src_port = as_int d in
      let* dst_port = as_int e in
      Ok { Nf.Packet.src_ip; dst_ip; proto; src_port; dst_port }
  | _ -> Error "packet: expected 5 ints"

let workload_json (w : Testbed.Workload.t) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str w.Testbed.Workload.name);
      ( "packets",
        Obs.Json.List
          (Array.to_list (Array.map packet_json w.Testbed.Workload.packets)) );
    ]

let workload_of_json j =
  let* name = str_field "name" j in
  let* pkts = list_field "packets" j in
  let* pkts = map_result packet_of_json pkts in
  Ok (Testbed.Workload.make ~name pkts)

let metrics_json (m : Symbex.State.metrics) =
  Obs.Json.List
    [
      Obs.Json.Int m.Symbex.State.instrs;
      Obs.Json.Int m.Symbex.State.loads;
      Obs.Json.Int m.Symbex.State.stores;
      Obs.Json.Int m.Symbex.State.l3_misses;
      Obs.Json.Int m.Symbex.State.cycles;
    ]

let metrics_of_json j =
  let* l = as_list j in
  match l with
  | [ a; b; c; d; e ] ->
      let* instrs = as_int a in
      let* loads = as_int b in
      let* stores = as_int c in
      let* l3_misses = as_int d in
      let* cycles = as_int e in
      Ok { Symbex.State.instrs; loads; stores; l3_misses; cycles }
  | _ -> Error "metrics: expected 5 ints"

let driver_stats_json ~deterministic (s : Symbex.Driver.stats) =
  Obs.Json.Obj
    [
      ("explored", Obs.Json.Int s.Symbex.Driver.explored);
      ("forks", Obs.Json.Int s.Symbex.Driver.forks);
      ("killed", Obs.Json.Int s.Symbex.Driver.killed);
      ( "kill_reasons",
        Obs.Json.List
          (List.map
             (fun (label, n) ->
               Obs.Json.List [ Obs.Json.Str label; Obs.Json.Int n ])
             s.Symbex.Driver.kill_reasons) );
      ("executed_instrs", Obs.Json.Int s.Symbex.Driver.executed_instrs);
      ( "wall_time",
        Obs.Json.Float (if deterministic then 0.0 else s.Symbex.Driver.wall_time)
      );
      ("degraded", Obs.Json.Bool s.Symbex.Driver.degraded);
      ("watchdog_kills", Obs.Json.Int s.Symbex.Driver.watchdog_kills);
    ]

let driver_stats_of_json j =
  let* explored = int_field "explored" j in
  let* forks = int_field "forks" j in
  let* killed = int_field "killed" j in
  let* reasons = list_field "kill_reasons" j in
  let* kill_reasons =
    map_result
      (fun r ->
        let* l = as_list r in
        match l with
        | [ a; b ] ->
            let* label = as_str a in
            let* n = as_int b in
            Ok (label, n)
        | _ -> Error "kill_reasons: expected [label, n]")
      reasons
  in
  let* executed_instrs = int_field "executed_instrs" j in
  let* wall_time = float_field "wall_time" j in
  let* degraded = bool_field "degraded" j in
  let* watchdog_kills = int_field "watchdog_kills" j in
  Ok
    {
      Symbex.Driver.explored;
      forks;
      killed;
      kill_reasons;
      executed_instrs;
      wall_time;
      degraded;
      watchdog_kills;
    }

let outcome_json ~deterministic (o : Analyze.outcome) =
  Obs.Json.Obj
    [
      ("nf", Obs.Json.Str o.Analyze.nf);
      ("workload", workload_json o.Analyze.workload);
      ("predicted", Obs.Json.List (List.map metrics_json o.Analyze.predicted));
      ("predicted_cost", Obs.Json.Int o.Analyze.predicted_cost);
      ("n_havocs", Obs.Json.Int o.Analyze.n_havocs);
      ("reconciled", Obs.Json.Int o.Analyze.reconciled);
      ("unreconciled", Obs.Json.Int o.Analyze.unreconciled);
      ("states_tried", Obs.Json.Int o.Analyze.states_tried);
      ( "analysis_time",
        Obs.Json.Float (if deterministic then 0.0 else o.Analyze.analysis_time)
      );
      ("stats", driver_stats_json ~deterministic o.Analyze.stats);
    ]

let outcome_of_json j =
  let* nf = str_field "nf" j in
  let* workload = Result.bind (field "workload" j) workload_of_json in
  let* predicted = list_field "predicted" j in
  let* predicted = map_result metrics_of_json predicted in
  let* predicted_cost = int_field "predicted_cost" j in
  let* n_havocs = int_field "n_havocs" j in
  let* reconciled = int_field "reconciled" j in
  let* unreconciled = int_field "unreconciled" j in
  let* states_tried = int_field "states_tried" j in
  let* analysis_time = float_field "analysis_time" j in
  let* stats = Result.bind (field "stats" j) driver_stats_of_json in
  Ok
    {
      Analyze.nf;
      workload;
      predicted;
      predicted_cost;
      n_havocs;
      reconciled;
      unreconciled;
      states_tried;
      analysis_time;
      stats;
    }

let encode_run ~deterministic (r : Experiment.nf_run) =
  Obs.Json.Obj
    [
      ("nf", Obs.Json.Str r.Experiment.nf.Nf.Nf_def.name);
      ("nop", measurement_json r.Experiment.nop);
      ( "rows",
        Obs.Json.List
          (List.map
             (fun (row : Experiment.row) ->
               Obs.Json.Obj
                 [
                   ("label", Obs.Json.Str row.Experiment.label);
                   ("measurement", measurement_json row.Experiment.measurement);
                 ])
             r.Experiment.rows) );
      ("castan", outcome_json ~deterministic r.Experiment.castan);
    ]

let decode_run j =
  let* name = str_field "nf" j in
  let* nf =
    match Nf.Registry.find name with
    | nf -> Ok nf
    | exception _ -> Error (Printf.sprintf "unknown NF %S" name)
  in
  let* nop = Result.bind (field "nop" j) measurement_of_json in
  let* rows = list_field "rows" j in
  let* rows =
    map_result
      (fun row ->
        let* label = str_field "label" row in
        let* measurement =
          Result.bind (field "measurement" row) measurement_of_json
        in
        Ok { Experiment.label; measurement })
      rows
  in
  let* castan = Result.bind (field "castan" j) outcome_of_json in
  Ok { Experiment.nf; nop; rows; castan }

let failure_json ~deterministic (f : Util.Resilience.failure) =
  Obs.Json.Obj
    [
      ("stage", Obs.Json.Str f.Util.Resilience.stage);
      ( "nf",
        match f.Util.Resilience.nf with
        | Some n -> Obs.Json.Str n
        | None -> Obs.Json.Null );
      ("reason", Obs.Json.Str f.Util.Resilience.reason);
      (* Backtraces carry build- and environment-specific text; they stay
         out of the deterministic form so fingerprints survive recompiles
         of the same logic. *)
      ( "backtrace",
        Obs.Json.Str (if deterministic then "" else f.Util.Resilience.backtrace)
      );
    ]

let failure_of_json j =
  let* stage = str_field "stage" j in
  let* nf =
    match Obs.Json.member "nf" j with
    | Some (Obs.Json.Str n) -> Ok (Some n)
    | Some Obs.Json.Null | None -> Ok None
    | Some _ -> Error "nf: expected string or null"
  in
  let* reason = str_field "reason" j in
  let* backtrace = str_field "backtrace" j in
  Ok (Util.Resilience.failure ?nf ~backtrace ~stage reason)

let result_json ~deterministic = function
  | Ok run -> Obs.Json.Obj [ ("ok", encode_run ~deterministic run) ]
  | Error f -> Obs.Json.Obj [ ("failed", failure_json ~deterministic f) ]

let fingerprint r =
  Digest.to_hex (Digest.string (Obs.Json.to_string (result_json ~deterministic:true r)))

(* ------------------------------------------------------------------ *)
(* The journal state                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  jdir : string;
  ident : identity;
  ledger : Util.Durable.appender;
  mu : Mutex.t;
  mutable written : int;
  mutable reused : int;
  base : stats;  (* hydrated/stale/resumes, fixed at enable time *)
}

let current : t option ref = ref None
let latest : stats ref = ref zero_stats

let active () = !current <> None

let stats () =
  match !current with
  | None -> !latest
  | Some j ->
      Mutex.protect j.mu (fun () ->
          { j.base with cells_written = j.written; cells_reused = j.reused })

let stats_json () =
  let s = stats () in
  Obs.Json.Obj
    ([ ("enabled", Obs.Json.Bool (active ())) ]
    @ (match !current with
      | Some j ->
          [ ("dir", Obs.Json.Str j.jdir); ("identity", identity_json j.ident) ]
      | None -> [])
    @ [
        ("cells_written", Obs.Json.Int s.cells_written);
        ("cells_reused", Obs.Json.Int s.cells_reused);
        ("hydrated", Obs.Json.Int s.hydrated);
        ("stale", Obs.Json.Int s.stale);
        ("resumes", Obs.Json.Int s.resumes);
      ])

let ledger_path dir = Filename.concat dir "ledger.jsonl"
let cells_dir dir = Filename.concat dir "cells"

let segment_name key = "cell-" ^ Digest.to_hex (Digest.string key) ^ ".json"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Crash repair, run before re-opening the ledger for append: a crash
   mid-append can leave a final line without its newline, and appending a
   fresh record after it would fuse the two into one corrupt line in the
   *middle* of the ledger.  Truncating back to the last complete line keeps
   the mid-file-corruption-is-an-error load policy honest. *)
let truncate_torn_tail path =
  if Sys.file_exists path then begin
    let content = read_file path in
    let len = String.length content in
    if len > 0 && content.[len - 1] <> '\n' then begin
      let keep =
        match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
      in
      Obs.Log.info "journal: truncating %d torn byte(s) off %s" (len - keep)
        path;
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd keep;
          try Unix.fsync fd with Unix.Unix_error _ -> ())
    end
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

let append_json j line =
  Util.Durable.append_line j.ledger (Obs.Json.to_string line)

(* Called from [Experiment]'s on_fresh observer — possibly on a pool
   worker, hence the lock around the ledger and counters.  The segment is
   written (atomically) before its ledger record: a crash between the two
   leaves an orphan segment, never a dangling record. *)
let record_cell j ~key ~nf r =
  let fp = fingerprint r in
  let common status rest =
    Mutex.protect j.mu (fun () ->
        append_json j
          (Obs.Json.Obj
             ([
                ("kind", Obs.Json.Str "cell");
                ("key", Obs.Json.Str key);
                ("nf", Obs.Json.Str nf);
                ("status", Obs.Json.Str status);
                ("fingerprint", Obs.Json.Str fp);
              ]
             @ rest));
        j.written <- j.written + 1);
    if Obs.Metrics.active () then Obs.Metrics.incr m_written
  in
  match r with
  | Ok run ->
      let seg = segment_name key in
      let content =
        Obs.Json.to_string (encode_run ~deterministic:false run) ^ "\n"
      in
      Util.Durable.write_string
        ~path:(Filename.concat (cells_dir j.jdir) seg)
        content;
      common "ok"
        [
          ("segment", Obs.Json.Str seg);
          ("segment_md5", Obs.Json.Str (Digest.to_hex (Digest.string content)));
        ]
  | Error f ->
      common
        ("failed:" ^ f.Util.Resilience.stage)
        [ ("failure", failure_json ~deterministic:false f) ]

let record_reuse j ~key:_ =
  Mutex.protect j.mu (fun () -> j.reused <- j.reused + 1);
  if Obs.Metrics.active () then Obs.Metrics.incr m_reused

let mark id =
  match !current with
  | None -> ()
  | Some j ->
      Mutex.protect j.mu (fun () ->
          append_json j
            (Obs.Json.Obj
               [ ("kind", Obs.Json.Str "mark"); ("id", Obs.Json.Str id) ]))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(* One pass over the ledger: cells recorded under [ident] (by the most
   recent preceding [open] record) hydrate; everything else counts as
   stale.  Later records win over earlier ones for the same key — they are
   either identical (deterministic recompute) or newer sessions'. *)
let load_ledger ~dir ~ident =
  let path = ledger_path dir in
  if not (Sys.file_exists path) then Ok ([], zero_stats)
  else begin
    let lines =
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let n_lines = List.length lines in
    let entries : (string, (Experiment.nf_run, Util.Resilience.failure) result) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    let cur : identity option ref = ref None in
    let resumes = ref 0 and stale = ref 0 in
    let err = ref None in
    let skip key reason =
      Obs.Log.info "journal: skipping cell %s (%s); it will be recomputed" key
        reason
    in
    List.iteri
      (fun i line ->
        if !err = None then
          match Obs.Json.parse line with
          | Error e ->
              (* A torn final line is the crash we are designed for;
                 corruption in the middle of the ledger is not. *)
              if i = n_lines - 1 then
                Obs.Log.info "journal: dropping torn final ledger line (%s)" e
              else err := Some (Printf.sprintf "ledger line %d: %s" (i + 1) e)
          | Ok j -> (
              match Obs.Json.member "kind" j with
              | Some (Obs.Json.Str "open") -> (
                  incr resumes;
                  match Result.bind (field "identity" j) identity_of_json with
                  | Ok id -> cur := Some id
                  | Error e ->
                      err := Some (Printf.sprintf "ledger line %d: %s" (i + 1) e)
                  )
              | Some (Obs.Json.Str "cell") -> (
                  match
                    let* key = str_field "key" j in
                    let* status = str_field "status" j in
                    Ok (key, status)
                  with
                  | Error e ->
                      err := Some (Printf.sprintf "ledger line %d: %s" (i + 1) e)
                  | Ok (key, status) ->
                      if !cur <> Some ident then incr stale
                      else if status = "ok" then begin
                        match
                          let* seg = str_field "segment" j in
                          let* md5 = str_field "segment_md5" j in
                          let* fp = str_field "fingerprint" j in
                          let path = Filename.concat (cells_dir dir) seg in
                          if not (Sys.file_exists path) then
                            Error "segment file missing"
                          else
                            let content = read_file path in
                            if Digest.to_hex (Digest.string content) <> md5 then
                              Error "segment bytes do not match ledger md5"
                            else
                              let* sj =
                                Result.map_error
                                  (fun e -> "segment parse: " ^ e)
                                  (Obs.Json.parse content)
                              in
                              let* run = decode_run sj in
                              if fingerprint (Ok run) <> fp then
                                Error "decoded run does not match fingerprint"
                              else Ok run
                        with
                        | Ok run ->
                            if not (Hashtbl.mem entries key) then
                              order := key :: !order;
                            Hashtbl.replace entries key (Ok run)
                        | Error reason -> skip key reason
                      end
                      else if String.length status > 7
                              && String.sub status 0 7 = "failed:" then begin
                        match Result.bind (field "failure" j) failure_of_json with
                        | Ok f ->
                            if not (Hashtbl.mem entries key) then
                              order := key :: !order;
                            Hashtbl.replace entries key (Error f)
                        | Error reason -> skip key reason
                      end
                      else skip key ("unknown status " ^ status))
              | Some (Obs.Json.Str "mark") | Some (Obs.Json.Str _) ->
                  (* marks are progress breadcrumbs; unknown kinds are
                     forward compatibility *)
                  ()
              | _ ->
                  err := Some (Printf.sprintf "ledger line %d: no kind" (i + 1))))
      lines;
    match !err with
    | Some e -> Error e
    | None ->
        let entries =
          List.rev_map (fun key -> (key, Hashtbl.find entries key)) !order
        in
        Ok
          ( entries,
            {
              zero_stats with
              hydrated = List.length entries;
              stale = !stale;
              resumes = !resumes;
            } )
  end

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)
(* ------------------------------------------------------------------ *)

let disable () =
  (match !current with
  | None -> ()
  | Some j ->
      latest := stats ();
      Util.Durable.append_close j.ledger;
      Experiment.set_on_fresh None;
      Experiment.set_on_reuse None);
  current := None

let enable ~dir ~config ~resume =
  disable ();
  let ident = current_identity config in
  match
    mkdir_p (cells_dir dir);
    if resume then load_ledger ~dir ~ident else Ok ([], zero_stats)
  with
  | exception Unix.Unix_error (e, _, arg) ->
      Error (Printf.sprintf "journal: cannot create %s: %s" arg (Unix.error_message e))
  | Error e -> Error e
  | Ok (entries, base) ->
      Experiment.seed_cache entries;
      if base.resumes > 0 && Obs.Metrics.active () then
        Obs.Metrics.incr ~by:base.resumes m_resumes;
      truncate_torn_tail (ledger_path dir);
      let ledger = Util.Durable.append_open (ledger_path dir) in
      let j =
        { jdir = dir; ident; ledger; mu = Mutex.create (); written = 0;
          reused = 0; base }
      in
      append_json j
        (Obs.Json.Obj
           [
             ("kind", Obs.Json.Str "open");
             ("schema_version", Obs.Json.Int 1);
             ("identity", identity_json ident);
             ("resume", Obs.Json.Bool resume);
           ]);
      Experiment.set_on_fresh (Some (fun ~key ~nf r -> record_cell j ~key ~nf r));
      Experiment.set_on_reuse (Some (fun ~key -> record_reuse j ~key));
      current := Some j;
      latest := zero_stats;
      if base.hydrated > 0 then
        Obs.Log.info "journal: resumed %d cell(s) from %s%s" base.hydrated dir
          (if base.stale > 0 then
             Printf.sprintf " (%d stale cell(s) ignored)" base.stale
           else "");
      Ok ()
