(* Validates the files the telemetry flags emit; the `dune build @smoke`
   legs (bin/dune) run it against real `castan` runs.

     check_telemetry trace FILE.jsonl   -- Chrome trace_event JSONL
     check_telemetry metrics FILE.json  -- run-manifest JSON whose metrics
                                           hold only counters; one that
                                           lists experiments must time each
                                           of them, in order, in
                                           experiments_timed; a profile
                                           section must hold blocks whose
                                           cycles sum to total_cycles
     check_telemetry pool FILE.json [MIN_TASKS]
                                        -- manifest records jobs + pool
                                           tasks (and ran >= MIN_TASKS
                                           pool tasks)
     check_telemetry pool-eq A.json B.json
                                        -- two manifests agree on everything
                                           the worker pool promises to keep
                                           bit-identical (metrics, config,
                                           the ids of experiments_timed)
                                           regardless of -j
     check_telemetry replay FILE.json [MIN_PACKETS]
                                        -- manifest records coherent
                                           replay.packets/replay.bursts
                                           counters (>= MIN_PACKETS packets
                                           if given)

   Exit 0 when the file is well formed, 1 (with a diagnostic on stderr) when
   it is not.  Uses the same Obs.Json parser the tests use, so "well formed"
   here means "loadable by anything strict". *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> fail "cannot read %s: %s" path m

let get_str obj key =
  match Obs.Json.member key obj with Some (Obs.Json.Str s) -> Some s | _ -> None

let is_number = function Obs.Json.Int _ | Obs.Json.Float _ -> true | _ -> false

let check_trace path =
  let lines =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s: empty trace" path;
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match Obs.Json.parse line with
      | Error e -> fail "%s:%d: not JSON: %s" path ln e
      | Ok (Obs.Json.Obj _ as obj) -> (
          (match get_str obj "name" with
          | Some _ -> ()
          | None -> fail "%s:%d: event without a name" path ln);
          (match Obs.Json.member "ts" obj with
          | Some v when is_number v -> ()
          | _ -> fail "%s:%d: event without a numeric ts" path ln);
          match get_str obj "ph" with
          | Some "X" ->
              if
                not
                  (match Obs.Json.member "dur" obj with
                  | Some v -> is_number v
                  | None -> false)
              then fail "%s:%d: complete event without dur" path ln
          | Some "i" -> ()
          | Some ph -> fail "%s:%d: unexpected phase %S" path ln ph
          | None -> fail "%s:%d: event without ph" path ln)
      | Ok _ -> fail "%s:%d: not a JSON object" path ln)
    lines;
  Printf.printf "%s: %d trace events ok\n" path (List.length lines)

let check_metrics path =
  match Obs.Json.parse (read_file path) with
  | Error e -> fail "%s: not JSON: %s" path e
  | Ok obj ->
      (match get_str obj "tool" with
      | Some "castan" -> ()
      | _ -> fail "%s: missing tool tag" path);
      (match Obs.Json.member "metrics" obj with
      | Some (Obs.Json.Obj [ ("counters", Obs.Json.Obj counters) ]) ->
          if counters = [] then fail "%s: counters snapshot is empty" path;
          List.iter
            (fun c ->
              if not (List.mem_assoc c counters) then
                fail "%s: %s counter missing" path c)
            [
              "solver.verdict.sat";
              "solver.cache.miss";
              "solver.slice.constraints_dropped";
            ]
      | Some _ -> fail "%s: metrics must hold exactly a counters object" path
      | None -> fail "%s: no metrics snapshot" path);
      (* An experiment manifest times every entry it ran, in run order,
         after a leading campaigns entry when the entries needed any. *)
      (match Obs.Json.member "experiments" obj with
      | None -> ()
      | Some (Obs.Json.List ids) ->
          let timed =
            match Obs.Json.member "experiments_timed" obj with
            | Some (Obs.Json.List l) -> l
            | _ -> fail "%s: experiments listed but no experiments_timed" path
          in
          let timed_ids =
            List.map
              (fun e ->
                match (get_str e "id", Obs.Json.member "seconds" e) with
                | Some id, Some (Obs.Json.Int n) when n >= 0 -> id
                | Some id, Some (Obs.Json.Float s) when s >= 0.0 -> id
                | Some id, _ ->
                    fail "%s: experiments_timed %s: seconds is not a \
                          non-negative number" path id
                | None, _ -> fail "%s: experiments_timed entry without id" path)
              timed
          in
          let timed_ids =
            match timed_ids with "campaigns" :: rest -> rest | l -> l
          in
          if List.map (fun i -> Obs.Json.Str i) timed_ids <> ids then
            fail "%s: experiments_timed ids [%s] do not match experiments" path
              (String.concat ", " timed_ids)
      | Some _ -> fail "%s: experiments is not a list" path);
      (* A profile manifest's blocks must account for every attributed
         cycle. *)
      (match Obs.Json.member "profile" obj with
      | None -> ()
      | Some p ->
          let total =
            match Obs.Json.member "total_cycles" p with
            | Some (Obs.Json.Int n) -> n
            | _ -> fail "%s: profile without integer total_cycles" path
          in
          let blocks =
            match Obs.Json.member "blocks" p with
            | Some (Obs.Json.List (_ :: _ as l)) -> l
            | _ -> fail "%s: profile blocks missing or empty" path
          in
          let sum =
            List.fold_left
              (fun acc b ->
                match Obs.Json.member "cycles" b with
                | Some (Obs.Json.Int n) -> acc + n
                | _ -> fail "%s: profile block without integer cycles" path)
              0 blocks
          in
          if sum <> total then
            fail "%s: profile blocks sum to %d cycles but total_cycles is %d"
              path sum total);
      Printf.printf "%s: manifest ok\n" path

(* `check_telemetry pool FILE.json [MIN_TASKS]`: the manifest must record
   which job count produced it and how many pool tasks ran — and, when
   MIN_TASKS is given, prove the pool actually ran (a parallel smoke run
   that silently fell back to serial would pass every equality check). *)
let check_pool path min_tasks =
  match Obs.Json.parse (read_file path) with
  | Error e -> fail "%s: not JSON: %s" path e
  | Ok obj ->
      let jobs =
        match Obs.Json.member "jobs" obj with
        | Some (Obs.Json.Int j) when j >= 1 -> j
        | _ -> fail "%s: missing or non-positive jobs field" path
      in
      let tasks =
        match Obs.Json.member "pool" obj with
        | Some (Obs.Json.Obj p) -> (
            match List.assoc_opt "tasks" p with
            | Some (Obs.Json.Int n) when n >= 0 -> n
            | _ -> fail "%s: pool.tasks missing or not a non-negative integer"
                     path)
        | _ -> fail "%s: no pool section" path
      in
      (match min_tasks with
      | Some m when tasks < m ->
          fail "%s: expected at least %d pool tasks, saw %d" path m tasks
      | _ -> ());
      Printf.printf "%s: pool ok (jobs %d, %d tasks)\n" path jobs tasks

(* `check_telemetry pool-eq A.json B.json`: everything the pool promises to
   keep bit-identical across job counts must match — experiment list,
   config, seed, every counter and the ids experiments_timed lists.  Exempt
   by design: generated_at_unix, jobs, pool and wall times
   (experiments_timed seconds). *)
let check_pool_eq path_a path_b =
  let load path =
    match Obs.Json.parse (read_file path) with
    | Error e -> fail "%s: not JSON: %s" path e
    | Ok obj -> obj
  in
  let a = load path_a and b = load path_b in
  (* [experiments]/[config]/[seed] appear only in experiment manifests;
     analyze manifests carry neither, which is fine as long as the two
     files agree on what they carry. *)
  let eq_subtree ~required key member =
    match (member a, member b) with
    | None, None when not required -> ()
    | Some va, Some vb ->
        if Obs.Json.to_string va <> Obs.Json.to_string vb then
          fail "pool-eq: %s differs between %s and %s:\n  %s\n  %s" key path_a
            path_b
            (Obs.Json.to_string va)
            (Obs.Json.to_string vb)
    | _ ->
        fail "pool-eq: %s present in only one of %s and %s" key path_a path_b
  in
  List.iter
    (fun key -> eq_subtree ~required:false key (Obs.Json.member key))
    [ "experiments"; "config"; "seed" ];
  (* The entries and their order, without their wall seconds. *)
  eq_subtree ~required:false "experiments_timed ids" (fun obj ->
      match Obs.Json.member "experiments_timed" obj with
      | Some (Obs.Json.List l) ->
          Some (Obs.Json.List (List.filter_map (Obs.Json.member "id") l))
      | v -> v);
  eq_subtree ~required:true "metrics" (Obs.Json.member "metrics");
  Printf.printf "pool-eq: %s and %s agree on all deterministic sections\n"
    path_a path_b

(* `check_telemetry replay FILE.json [MIN_PACKETS]`: a manifest from a run
   that replayed packets must carry the replay.packets/replay.bursts
   counters — with packets >= bursts >= 1 (a burst holds at least one
   packet) and, when MIN_PACKETS is given, at least that many packets
   replayed. *)
let check_replay path min_packets =
  match Obs.Json.parse (read_file path) with
  | Error e -> fail "%s: not JSON: %s" path e
  | Ok obj ->
      let counters =
        match Obs.Json.member "metrics" obj with
        | Some m -> (
            match Obs.Json.member "counters" m with
            | Some (Obs.Json.Obj c) -> c
            | _ -> fail "%s: counters is not an object" path)
        | None -> fail "%s: no metrics snapshot" path
      in
      let counter k =
        match List.assoc_opt k counters with
        | Some (Obs.Json.Int n) when n >= 0 -> n
        | Some _ -> fail "%s: %s is not a non-negative integer" path k
        | None -> fail "%s: %s counter missing" path k
      in
      let packets = counter "replay.packets"
      and bursts = counter "replay.bursts" in
      if packets < 1 then fail "%s: replay.packets is 0" path;
      if bursts < 1 then fail "%s: replay.bursts is 0" path;
      if packets < bursts then
        fail "%s: replay.packets (%d) < replay.bursts (%d)" path packets
          bursts;
      (match min_packets with
      | Some m when packets < m ->
          fail "%s: expected at least %d replayed packet(s), saw %d" path m
            packets
      | _ -> ());
      Printf.printf "%s: replay ok (%d packet(s) in %d burst(s))\n" path
        packets bursts

let () =
  match Sys.argv with
  | [| _; "trace"; path |] -> check_trace path
  | [| _; "metrics"; path |] -> check_metrics path
  | [| _; "pool"; path |] -> check_pool path None
  | [| _; "pool"; path; min_tasks |] -> (
      match int_of_string_opt min_tasks with
      | Some m when m >= 0 -> check_pool path (Some m)
      | _ -> fail "pool: MIN_TASKS must be a non-negative integer")
  | [| _; "pool-eq"; a; b |] -> check_pool_eq a b
  | [| _; "replay"; path |] -> check_replay path None
  | [| _; "replay"; path; min_packets |] -> (
      match int_of_string_opt min_packets with
      | Some m when m >= 0 -> check_replay path (Some m)
      | _ -> fail "replay: MIN_PACKETS must be a non-negative integer")
  | _ ->
      fail
        "usage: check_telemetry {trace|metrics} FILE\n\
        \       check_telemetry pool FILE.json [MIN_TASKS]\n\
        \       check_telemetry pool-eq A.json B.json\n\
        \       check_telemetry replay FILE.json [MIN_PACKETS]"
