type row = { func : string; block : int; stats : Obs.Profile.stats }

(* The leader of the block holding [pc]: the greatest leader <= pc (pc 0
   is always one). *)
let rec block_of is_leader pc =
  if pc <= 0 then 0
  else if is_leader.(pc) then pc
  else block_of is_leader (pc - 1)

let add_into (dst : Obs.Profile.stats) (s : Obs.Profile.stats) =
  dst.Obs.Profile.cycles <- dst.Obs.Profile.cycles + s.Obs.Profile.cycles;
  dst.instrs <- dst.instrs + s.Obs.Profile.instrs;
  dst.loads <- dst.loads + s.Obs.Profile.loads;
  dst.stores <- dst.stores + s.Obs.Profile.stores;
  dst.l1 <- dst.l1 + s.Obs.Profile.l1;
  dst.l2 <- dst.l2 + s.Obs.Profile.l2;
  dst.l3 <- dst.l3 + s.Obs.Profile.l3;
  dst.dram <- dst.dram + s.Obs.Profile.dram

let rows program =
  let leaders_cache : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
  let leaders_for func =
    match Hashtbl.find_opt leaders_cache func with
    | Some l -> Some l
    | None -> (
        match Hashtbl.find_opt program.Ir.Cfg.funcs func with
        | None -> None (* pseudo-function: one block at pc 0 *)
        | Some f ->
            let l = Ir.Cfg.leaders f in
            Hashtbl.add leaders_cache func l;
            Some l)
  in
  let blocks : (string * int, Obs.Profile.stats) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((func, pc), s) ->
      let block =
        match leaders_for func with
        | Some l -> block_of l (min pc (Array.length l - 1))
        | None -> 0
      in
      let key = (func, block) in
      match Hashtbl.find_opt blocks key with
      | Some dst -> add_into dst s
      | None -> Hashtbl.add blocks key s)
    (Obs.Profile.sites ());
  Hashtbl.fold
    (fun (func, block) stats acc -> { func; block; stats } :: acc)
    blocks []
  |> List.sort (fun a b ->
         let c =
           compare b.stats.Obs.Profile.cycles a.stats.Obs.Profile.cycles
         in
         if c <> 0 then c else compare (a.func, a.block) (b.func, b.block))

let total_cycles rows =
  List.fold_left (fun acc r -> acc + r.stats.Obs.Profile.cycles) 0 rows

let table ~nf ?(top = 20) program =
  let all = rows program in
  let total = total_cycles all in
  let header =
    [ "func"; "block"; "cycles"; "%"; "instrs"; "loads"; "stores";
      "l1"; "l2"; "l3"; "dram" ]
  in
  let pct c =
    if total = 0 then "0.0"
    else Printf.sprintf "%.1f" (100.0 *. float_of_int c /. float_of_int total)
  in
  let row r =
    let s = r.stats in
    [
      r.func;
      Printf.sprintf "blk%d" r.block;
      string_of_int s.Obs.Profile.cycles;
      pct s.Obs.Profile.cycles;
      string_of_int s.Obs.Profile.instrs;
      string_of_int s.Obs.Profile.loads;
      string_of_int s.Obs.Profile.stores;
      string_of_int s.Obs.Profile.l1;
      string_of_int s.Obs.Profile.l2;
      string_of_int s.Obs.Profile.l3;
      string_of_int s.Obs.Profile.dram;
    ]
  in
  let shown = List.filteri (fun i _ -> i < top) all in
  Printf.sprintf "%s: %d blocks, %d cycles attributed\n%s" nf
    (List.length all) total
    (Util.Table.render ~header ~rows:(List.map row shown))

let to_json ~nf program =
  let all = rows program in
  let block_json r =
    let s = r.stats in
    Obs.Json.Obj
      [
        ("func", Obs.Json.Str r.func);
        ("block", Obs.Json.Int r.block);
        ("cycles", Obs.Json.Int s.Obs.Profile.cycles);
        ("instrs", Obs.Json.Int s.Obs.Profile.instrs);
        ("loads", Obs.Json.Int s.Obs.Profile.loads);
        ("stores", Obs.Json.Int s.Obs.Profile.stores);
        ("l1", Obs.Json.Int s.Obs.Profile.l1);
        ("l2", Obs.Json.Int s.Obs.Profile.l2);
        ("l3", Obs.Json.Int s.Obs.Profile.l3);
        ("dram", Obs.Json.Int s.Obs.Profile.dram);
      ]
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 1);
      ("nf", Obs.Json.Str nf);
      ("total_cycles", Obs.Json.Int (total_cycles all));
      ( "timers_s",
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> (k, Obs.Json.Float v))
             (Obs.Profile.timers ())) );
      ("blocks", Obs.Json.List (List.map block_json all));
    ]
