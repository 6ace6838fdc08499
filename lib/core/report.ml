let print_cdf_figure ~id ~title ~unit_label series =
  Printf.printf "\n== %s: %s ==\n" id title;
  let header = "CDF" :: List.map fst series in
  let rows =
    List.init 21 (fun k ->
        let q = float_of_int k /. 20.0 in
        Printf.sprintf "%.2f" q
        :: List.map
             (fun (_, cdf) ->
               Printf.sprintf "%.0f" (Util.Stats.quantile cdf q))
             series)
  in
  Util.Table.print ~header:(header @ [ Printf.sprintf "(%s)" unit_label ]) ~rows

let latency_series (r : Experiment.nf_run) =
  ("NOP", Testbed.Tg.latency_cdf r.nop)
  :: List.map
       (fun (row : Experiment.row) ->
         (row.label, Testbed.Tg.latency_cdf row.measurement))
       r.rows

let cycles_series (r : Experiment.nf_run) =
  ("NOP", Testbed.Tg.cycles_cdf r.nop)
  :: List.map
       (fun (row : Experiment.row) ->
         (row.label, Testbed.Tg.cycles_cdf row.measurement))
       r.rows

(* Tables 1-3, 5 share a layout: workloads as rows, NFs as columns.  NFs
   whose campaign failed keep their column, rendered as a [failed:<stage>]
   cell in every row — a degraded table is still a table. *)
let workload_order =
  [ "NOP"; "1 Packet"; "Zipfian"; "UniRand"; "UniRand CASTAN"; "CASTAN"; "Manual" ]

let failed_cell (f : Util.Resilience.failure) = "failed:" ^ f.Util.Resilience.stage

let grid_table ~title ~cell ?(failed = []) runs =
  Printf.printf "\n== %s ==\n" title;
  let header =
    ("Workload" :: List.map (fun (r : Experiment.nf_run) -> r.nf.Nf.Nf_def.name) runs)
    @ List.map fst failed
  in
  let failed_cells = List.map (fun (_, f) -> failed_cell f) failed in
  let rows =
    List.filter_map
      (fun wl ->
        let cells =
          List.map
            (fun (r : Experiment.nf_run) ->
              if wl = "NOP" then cell r (Some r.Experiment.nop)
              else
                match List.find_opt (fun (row : Experiment.row) -> row.label = wl) r.rows with
                | Some row -> cell r (Some row.measurement)
                | None -> "-")
            runs
        in
        if List.for_all (( = ) "-") cells then None
        else Some ((wl :: cells) @ failed_cells))
      workload_order
  in
  Util.Table.print ~header ~rows

let print_throughput_table ?failed runs =
  grid_table ~title:"Table 1: maximum throughput (Mpps)"
    ~cell:(fun _ m ->
      match m with
      | Some m -> Printf.sprintf "%.2f" (Testbed.Tg.max_throughput_mpps m)
      | None -> "-")
    ?failed runs

let print_instrs_table ?failed runs =
  grid_table ~title:"Table 2: median instructions retired per packet"
    ~cell:(fun _ m ->
      match m with
      | Some m -> string_of_int (Testbed.Tg.median_instrs m)
      | None -> "-")
    ?failed runs

let print_misses_table ?failed runs =
  grid_table ~title:"Table 3: median L3 misses per packet"
    ~cell:(fun _ m ->
      match m with
      | Some m -> string_of_int (Testbed.Tg.median_l3_misses m)
      | None -> "-")
    ?failed runs

let print_deviation_table ?failed runs =
  grid_table ~title:"Table 5: median latency deviation from NOP (ns)"
    ~cell:(fun (r : Experiment.nf_run) m ->
      match m with
      | Some m when m != r.Experiment.nop ->
          Printf.sprintf "%.0f" (Testbed.Tg.deviation_from_nop_ns m ~nop:r.Experiment.nop)
      | Some _ -> "0"
      | None -> "-")
    ?failed runs

let print_analysis_table ?(failed = []) runs =
  Printf.printf
    "\n== Table 4: CASTAN analysis (packets generated, instructions executed) ==\n";
  let header = [ "NF"; "# Packets"; "Instructions"; "Explored"; "Reconciled" ] in
  let rows =
    List.map
      (fun (r : Experiment.nf_run) ->
        let c = r.Experiment.castan in
        [
          r.nf.Nf.Nf_def.name;
          string_of_int (Testbed.Workload.length c.Analyze.workload);
          string_of_int c.Analyze.stats.Symbex.Driver.executed_instrs;
          string_of_int c.Analyze.stats.Symbex.Driver.explored;
          Printf.sprintf "%d/%d" c.Analyze.reconciled c.Analyze.n_havocs;
        ])
      runs
    @ List.map
        (fun (name, f) -> [ name; failed_cell f; "-"; "-"; "-" ])
        failed
  in
  Util.Table.print ~header ~rows

let print_failure_summary failures =
  let failures =
    List.sort
      (fun (a : Util.Resilience.failure) b ->
        compare (a.nf, a.stage, a.reason) (b.nf, b.stage, b.reason))
      failures
  in
  if failures <> [] then begin
    Printf.printf "\n== failure summary: %d contained failure(s) ==\n"
      (List.length failures);
    List.iter
      (fun (stage, n) -> Printf.printf "  %-12s %d\n" stage n)
      (Util.Resilience.by_stage failures);
    List.iter
      (fun f -> Printf.printf "  - %s\n" (Util.Resilience.to_string f))
      failures
  end
