type config = {
  n_packets : int;
  strategy : Searcher.strategy;
  geom : Cache.Geometry.t;
  m : int;
  instr_budget : int;
  time_budget : float;
  max_completed : int;
}

type stats = {
  explored : int;
  forks : int;
  killed : int;
  kill_reasons : (string * int) list;
  executed_instrs : int;
  wall_time : float;
  degraded : bool;
}

type result = { ranked : State.t list; completed : State.t list; stats : stats }

(* Telemetry.  Totals are wired from [stats] once at the end of [run] (the
   per-event counting already happens for the stats record); only the
   per-slice spans touch the exploration loop, and they are gated so a
   disabled run does no extra work. *)
let m_explored = Obs.Metrics.counter "symbex.explored"
let m_forks = Obs.Metrics.counter "symbex.forks"
let m_killed = Obs.Metrics.counter "symbex.killed"
let m_executed = Obs.Metrics.counter "symbex.executed_instrs"
let m_completed = Obs.Metrics.counter "symbex.completed_paths"
let m_degraded = Obs.Metrics.counter "symbex.degraded_runs"

let record_run_metrics stats ~completed =
  if Obs.Metrics.active () then begin
    Obs.Metrics.incr ~by:stats.explored m_explored;
    Obs.Metrics.incr ~by:stats.forks m_forks;
    Obs.Metrics.incr ~by:stats.killed m_killed;
    Obs.Metrics.incr ~by:stats.executed_instrs m_executed;
    Obs.Metrics.incr ~by:completed m_completed;
    if stats.degraded then Obs.Metrics.incr m_degraded;
    List.iter
      (fun (label, n) ->
        Obs.Metrics.incr ~by:n (Obs.Metrics.counter ("symbex.kills." ^ label)))
      stats.kill_reasons
  end

(* Process-lifetime count of explorations the safety deadline cut short,
   summed across analyses (and pool worker domains — hence atomic).  The
   CLI reads it to pick exit code 2: a cut run's result depends on host
   speed, so it must never pass silently. *)
let deadline_cut_total = Atomic.make 0
let deadline_cuts () = Atomic.get deadline_cut_total

let run program ~mem ~cache config =
  let annot = Cost.annotate ~m:config.m config.geom program in
  let searcher = Searcher.create config.strategy ~annot in
  let start = Unix.gettimeofday () in
  let deadline = start +. config.time_budget in
  let explored = ref 0
  and forks = ref 0
  and killed = ref 0
  and executed = ref 0 in
  let kill_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let fault_kill = ref false in
  let count_kill reason =
    incr killed;
    if Exec.reason_is_fault reason then fault_kill := true;
    let label = Exec.reason_label reason in
    let cur =
      match Hashtbl.find_opt kill_counts label with Some n -> n | None -> 0
    in
    Hashtbl.replace kill_counts label (cur + 1)
  in
  let completed = ref [] and n_completed = ref 0 in
  (* The safety deadline is polled between slices and every 1024 executed
     instructions *inside* [advance], so a single 20k-instruction slice
     cannot overshoot [time_budget].  Once tripped, the flag is sticky. *)
  let deadline_hit = ref false in
  let deadline_expired () =
    if not !deadline_hit then deadline_hit := Unix.gettimeofday () >= deadline;
    !deadline_hit
  in
  let out_of_budget () =
    !executed >= config.instr_budget
    || deadline_expired ()
    || !n_completed >= config.max_completed
  in
  (* Execute one state until it forks at a plain branch, finishes a packet,
     or dies; loop-head forks continue greedily on the "one more iteration"
     side (§3.4). *)
  let rec advance s slice =
    if slice = 0 || (!executed land 1023 = 0 && deadline_expired ()) then
      Searcher.add searcher s
    else
      match Exec.step s with
      | Exec.Running s' ->
          incr executed;
          advance s' (slice - 1)
      | Exec.Forked { preferred; deferred; at_loop_head } ->
          incr executed;
          incr forks;
          List.iter (Searcher.add searcher) deferred;
          if at_loop_head then advance preferred (slice - 1)
          else Searcher.add searcher preferred
      | Exec.Packet_done s' ->
          incr executed;
          if Obs.Trace.enabled () then
            Obs.Trace.instant "symbex.packet_done"
              ~args:
                [ ("state", Obs.Json.Int s'.State.id);
                  ("pkt", Obs.Json.Int s'.State.pkt) ];
          let s'' = State.start_packet s' in
          if s''.State.finished then begin
            completed := s'' :: !completed;
            incr n_completed
          end
          else Searcher.add searcher s''
      | Exec.Killed (_, reason) ->
          incr executed;
          count_kill reason
  in
  let initial = State.initial program ~cache ~n_packets:config.n_packets ~mem in
  Searcher.add searcher initial;
  let slice = 20_000 in
  let rec loop () =
    if out_of_budget () then ()
    else
      match Searcher.pop searcher with
      | None -> ()
      | Some s ->
          incr explored;
          (* One span per execution slice: enough to see where the budget
             goes without tracing individual instructions. *)
          if Obs.Trace.enabled () then begin
            let sp =
              Obs.Trace.enter "symbex.slice"
                ~args:
                  [ ("state", Obs.Json.Int s.State.id);
                    ("pkt", Obs.Json.Int s.State.pkt);
                    ("queue", Obs.Json.Int (Searcher.size searcher)) ]
            in
            advance s slice;
            ignore (Obs.Trace.exit sp : float)
          end
          else advance s slice;
          loop ()
  in
  loop ();
  let pending = Searcher.drain searcher in
  let truncated =
    pending <> [] && (!deadline_hit || !executed >= config.instr_budget)
  in
  let score s = State.priority s annot in
  let ranked =
    List.stable_sort
      (fun a b -> compare (score b) (score a))
      (!completed @ pending)
  in
  let stats =
    {
      explored = !explored;
      forks = !forks;
      killed = !killed;
      kill_reasons =
        Hashtbl.fold (fun k n acc -> (k, n) :: acc) kill_counts []
        |> List.sort compare;
      executed_instrs = !executed;
      wall_time = Unix.gettimeofday () -. start;
      (* Degraded: a budget truncated exploration with work pending, or
         any state died of a fault (as opposed to normal exploration
         outcomes). *)
      degraded = truncated || !fault_kill;
    }
  in
  if !deadline_hit && pending <> [] then Atomic.incr deadline_cut_total;
  record_run_metrics stats ~completed:!n_completed;
  { ranked; completed = !completed; stats }
