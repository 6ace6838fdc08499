let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let scale_name = function `Quick -> "quick" | `Default -> "default" | `Paper -> "paper"

let config_json (c : Experiment.config) =
  Obs.Json.Obj
    [
      ("scale", Obs.Json.Str (scale_name c.Experiment.scale));
      ("samples", Obs.Json.Int c.Experiment.samples);
      ("analysis_instrs", Obs.Json.Int c.Experiment.analysis_instrs);
      ("seed", Obs.Json.Int c.Experiment.seed);
    ]

(* Worker-pool accounting: [tasks] lets a manifest reader tell a genuinely
   serial run (jobs = 1, zero tasks) from a parallel one. *)
let pool_json () =
  Obs.Json.Obj [ ("tasks", Obs.Json.Int (Util.Pool.stats ()).Util.Pool.tasks) ]

let make ?ids ?config ?(extra = []) () =
  Obs.Json.Obj
    ([
       ("tool", Obs.Json.Str "castan");
       ("version", Obs.Json.Str "1.0.0");
       ("generated_at_unix", Obs.Json.Float (Unix.gettimeofday ()));
       ("git", Obs.Json.Str (git_describe ()));
       ("jobs", Obs.Json.Int (Util.Pool.default_jobs ()));
     ]
    @ (match ids with
      | Some l -> [ ("experiments", Obs.Json.List (List.map (fun i -> Obs.Json.Str i) l)) ]
      | None -> [])
    @ (match config with
      | Some c ->
          [
            ("config", config_json c);
            ("seed", Obs.Json.Int c.Experiment.seed);
          ]
      | None -> [])
    @ extra
    @ [
        ("metrics", Obs.Metrics.snapshot ());
        ("pool", pool_json ());
      ])

let write ~path json =
  Util.Durable.write_string ~path (Obs.Json.to_string json ^ "\n")
