type t = {
  full : (string, int) Hashtbl.t;
  to_ret : (string, int array) Hashtbl.t;
}

(* Maximum-cost path from each pc to the return, bounding loop-head
   repetitions by [m].  Memoized on (pc, encoded loop-head context): in a
   reducible CFG every cycle passes through its loop head, so bounding heads
   bounds all repetition. *)
let annotate_func ~m geom (f : Ir.Cfg.func) full_tbl =
  let n = Array.length f.body in
  let heads = Array.make n (-1) in
  let n_heads = ref 0 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Ir.Cfg.Branch { loop_head = true; _ } ->
          heads.(pc) <- !n_heads;
          incr n_heads
      | _ -> ())
    f.body;
  let counts = Array.make (max !n_heads 1) 0 in
  let signature () =
    let s = ref 0 in
    for i = 0 to !n_heads - 1 do
      s := (!s * (m + 1)) + counts.(i)
    done;
    !s
  in
  (* One instruction's cycles, its memory access hitting L1; a Havoc adds
     its hash's declared weight, rounded on its own. *)
  let local pc =
    let instr = f.body.(pc) in
    let base = Cache.Geometry.op_cycles (Ir.Cfg.weight instr) in
    match instr with
    | Ir.Cfg.Load _ | Ir.Cfg.Store _ -> base + geom.Cache.Geometry.lat_l1
    | Ir.Cfg.Havoc { hash; _ } ->
        base + Cache.Geometry.op_cycles (Ir.Hashes.lookup hash).weight
    | Ir.Cfg.Call { func; _ } -> (
        base
        + match Hashtbl.find_opt full_tbl func with Some c -> c | None -> 0)
    | _ -> base
  in
  let memo : (int * int, int option) Hashtbl.t = Hashtbl.create (n * 4) in
  let rec go pc =
    if pc >= n then Some 0
    else
      let head = heads.(pc) in
      if head >= 0 && counts.(head) >= m then None
      else begin
        if head >= 0 then counts.(head) <- counts.(head) + 1;
        let key = (pc, signature ()) in
        let result =
          match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
              let r =
                match Ir.Cfg.successors f pc with
                | [] -> Some (local pc)
                | succs ->
                    let best =
                      List.fold_left
                        (fun acc s ->
                          match go s with
                          | Some c -> max acc c
                          | None -> acc)
                        min_int succs
                    in
                    if best = min_int then None else Some (local pc + best)
              in
              Hashtbl.replace memo key r;
              r
        in
        if head >= 0 then counts.(head) <- counts.(head) - 1;
        result
      end
  in
  let to_ret =
    Array.init n (fun pc -> match go pc with Some c -> c | None -> 0)
  in
  to_ret

let annotate ?(m = 2) geom program =
  let full = Hashtbl.create 16 in
  let to_ret = Hashtbl.create 16 in
  List.iter
    (fun fname ->
      let f = Ir.Cfg.func program fname in
      let arr = annotate_func ~m geom f full in
      Hashtbl.replace to_ret fname arr;
      Hashtbl.replace full fname (if Array.length arr > 0 then arr.(0) else 0))
    (Ir.Icfg.topo_order program);
  { full; to_ret }

let full_cost t fname =
  match Hashtbl.find_opt t.full fname with Some c -> c | None -> 0

let to_return t ~func ~pc =
  match Hashtbl.find_opt t.to_ret func with
  | Some arr when pc >= 0 && pc < Array.length arr -> arr.(pc)
  | _ -> 0
