type cache_kind =
  | Contention_sets of Cache.Contention.t
  | Oracle
  | Baseline

type config = {
  n_packets : int option;
  strategy : Symbex.Searcher.strategy;
  cache : cache_kind;
  m : int;
  time_budget : float;
  instr_budget : int;
  seed : int;
}

let default_config ?(cache = Baseline) () =
  {
    n_packets = None;
    strategy = Symbex.Searcher.Castan;
    cache;
    m = 2;
    time_budget = 300.0;
    instr_budget = 12_000;
    seed = 7;
  }

type outcome = {
  nf : string;
  workload : Testbed.Workload.t;
  predicted : Symbex.State.metrics list;
  predicted_cost : int;
  n_havocs : int;
  reconciled : int;
  states_tried : int;
  stats : Symbex.Driver.stats;
}

(* ------------------------------------------------------------------ *)
(* Rainbow tables and contention sets                                  *)
(* ------------------------------------------------------------------ *)

(* The rainbow memo is shared across pool workers (campaigns for different
   NFs reuse the same rainbow tables), so lookups are Mutex-guarded with
   double-checked insertion: losing a race costs one redundant deterministic
   build, never an inconsistent table. *)
let rainbow_mu = Mutex.create ()
let rainbow_cache : (string, Hashrev.Rainbow.t) Hashtbl.t = Hashtbl.create 8

let rainbow_for hash_name ks =
  let key = hash_name ^ "/" ^ ks.Hashrev.Rainbow.ks_name in
  match Mutex.protect rainbow_mu (fun () -> Hashtbl.find_opt rainbow_cache key) with
  | Some t -> t
  | None ->
      let hash = Ir.Hashes.lookup hash_name in
      let t =
        (* Small hash spaces get the brute-force inverse index; large ones
           the chain table (§3.5: "brute-force methods augmented by the use
           of rainbow tables"). *)
        if hash.Ir.Hashes.bits <= 16 then
          Hashrev.Rainbow.build_exhaustive ~hash ks
        else
          (* Scale the chain count to the key space: with chain merges, a
             few times |keys| worth of chain steps is needed for coverage
             past associativity on the ring. *)
          let chains = max 32768 (ks.Hashrev.Rainbow.count / 64) in
          Hashrev.Rainbow.build ~hash ~chains ~chain_len:256 ks
      in
      Mutex.protect rainbow_mu (fun () ->
          match Hashtbl.find_opt rainbow_cache key with
          | Some t -> t
          | None ->
              Hashtbl.replace rainbow_cache key t;
              t)

let discover_contention_sets ?(pool = 512) ?(pages = 2) ?(reboots = 2) () =
  let geom = Cache.Geometry.xeon_e5_2667v2 in
  let offsets = Cache.Contention.standard_offsets geom ~count:pool in
  Cache.Contention.consistent ~pages ~reboots ~geom ~offsets

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let cache_model kind =
  let geom = Cache.Geometry.xeon_e5_2667v2 in
  match kind with
  | Contention_sets sets -> Cache.Model.contention geom sets
  | Baseline -> Cache.Model.baseline geom
  | Oracle ->
      (* Perfect knowledge of the DUT machine. *)
      let m = Testbed.Dut.machine () in
      Cache.Model.oracle geom ~slice_of:(fun vaddr ->
          Cache.Hierarchy.ground_truth_slice m.Cache.Probe.hier
            (Cache.Vmem.translate m.Cache.Probe.vmem vaddr))

(* Reconcile and solve one candidate state; None if its constraints defeat
   the solver. *)
let synthesize (nf : Nf.Nf_def.t) ~rng ~n_packets (s : Symbex.State.t) =
  let havocs =
    List.rev_map
      (fun (pkt, hash, input, output) ->
        { Hashrev.Reconcile.hv_pkt = pkt; hv_hash = hash; hv_input = input;
          hv_output = output })
      s.Symbex.State.havocs
  in
  let tables name =
    match List.assoc_opt name nf.Nf.Nf_def.keyspaces with
    | Some ks -> Some (rainbow_for name ks)
    | None -> None
  in
  let r =
    Obs.Trace.with_span "analyze.reconcile"
      ~args:[ ("havocs", Obs.Json.Int (List.length havocs)) ]
      (fun () ->
        Hashrev.Reconcile.run ~tables ~rng ~pc:s.Symbex.State.pcs ~havocs ())
  in
  match
    Obs.Trace.with_span "analyze.solve"
      ~args:
        [ ("constraints", Obs.Json.Int (List.length r.Hashrev.Reconcile.constraints)) ]
      (fun () ->
        Solver.Solve.sat ~rng ~attempts:4000 r.Hashrev.Reconcile.constraints)
  with
  | Sat model ->
      (* The paper's workloads are "N packets, each in a different flow".
         Fields the path never constrained come back identical; perturb them
         (validating against the full constraint set) so every packet is its
         own flow. *)
      let model = ref model in
      let seen = Hashtbl.create n_packets in
      let cs = r.Hashrev.Reconcile.constraints in
      for pkt = 0 to n_packets - 1 do
        let tuple () =
          List.map
            (fun f -> Solver.Solve.Model.get !model (Ir.Expr.Pkt { pkt; field = f }))
            Ir.Expr.all_fields
        in
        let tries = ref 0 in
        while Hashtbl.mem seen (tuple ()) && !tries < 64 do
          incr tries;
          let field =
            if !tries mod 2 = 1 then Ir.Expr.Src_port else Ir.Expr.Dst_port
          in
          let sym = Ir.Expr.Pkt { pkt; field } in
          let candidate =
            Solver.Solve.Model.add sym
              (Util.Rng.int rng 64511 + 1024)
              !model
          in
          if Solver.Solve.check candidate cs then model := candidate
        done;
        Hashtbl.replace seen (tuple ()) ()
      done;
      let packets = Nf.Packet.of_model !model ~n:n_packets in
      Some
        ( Testbed.Workload.make ~name:"CASTAN" packets,
          List.length r.Hashrev.Reconcile.reconciled,
          List.length havocs )
  | Unsat | Unknown -> None

(* Ranked states to attempt solving before giving up on the NF. *)
let states_to_try = 16

let run ~config:cfg (nf : Nf.Nf_def.t) =
  (* Pin every id sequence an analysis consumes to its start: symbol and
     state ids become pure functions of the NF + config, so a
     campaign produces identical constraints (and ktest files) no matter
     what ran before it — serially or on a sibling pool worker.  This must
     happen before [fresh_symbolic_memory] below, which already allocates
     fresh symbols. *)
  Ir.Expr.reset_fresh ();
  Symbex.State.reset_ids ();
  let n_packets =
    match cfg.n_packets with Some n -> n | None -> nf.Nf.Nf_def.castan_packets
  in
  let nf_arg = [ ("nf", Obs.Json.Str nf.Nf.Nf_def.name) ] in
  let driver_cfg, mem, cache =
    Obs.Trace.with_span "analyze.build" ~args:nf_arg (fun () ->
        let driver_cfg =
          {
            Symbex.Driver.n_packets;
            strategy = cfg.strategy;
            geom = Cache.Geometry.xeon_e5_2667v2;
            m = cfg.m;
            instr_budget = cfg.instr_budget;
            time_budget = cfg.time_budget;
            max_completed = 32;
          }
        in
        (driver_cfg, Nf.Nf_def.fresh_symbolic_memory nf, cache_model cfg.cache))
  in
  let result =
    Obs.Trace.with_span "analyze.explore" ~args:nf_arg (fun () ->
        Symbex.Driver.run nf.Nf.Nf_def.program ~mem ~cache driver_cfg)
  in
  Obs.Profile.add_timer "symbex"
    result.Symbex.Driver.stats.Symbex.Driver.wall_time;
  Obs.Log.debug "analyze %s: explored %d states (%d completed paths)"
    nf.Nf.Nf_def.name result.Symbex.Driver.stats.Symbex.Driver.explored
    (List.length result.Symbex.Driver.completed);
  let rng = Util.Rng.create (0xadd + cfg.seed) in
  let rec try_states tried = function
    | [] ->
        failwith
          (Printf.sprintf "Castan.Analyze: no solvable state for %s"
             nf.Nf.Nf_def.name)
    | s :: rest -> (
        if tried >= states_to_try then
          failwith
            (Printf.sprintf "Castan.Analyze: gave up solving states for %s"
               nf.Nf.Nf_def.name)
        else
          match synthesize nf ~rng ~n_packets s with
          | Some (workload, reconciled, n_havocs) ->
              {
                nf = nf.Nf.Nf_def.name;
                workload;
                predicted = Symbex.State.all_metrics s;
                predicted_cost = Symbex.State.current_cost s;
                n_havocs;
                reconciled;
                states_tried = tried + 1;
                stats = result.Symbex.Driver.stats;
              }
          | None -> try_states (tried + 1) rest)
  in
  Obs.Trace.with_span "analyze.synthesize" ~args:nf_arg (fun () ->
      try_states 0 result.Symbex.Driver.ranked)
