type t = { geom : Cache.Geometry.t; hash_weight : string -> int }

let default ?(hash_weight = fun _ -> 24) geom = { geom; hash_weight }

let instr_local t instr =
  let base = Cache.Geometry.op_cycles (Ir.Cfg.weight instr) in
  match instr with
  | Ir.Cfg.Load _ | Ir.Cfg.Store _ -> base + t.geom.Cache.Geometry.lat_l1
  | Ir.Cfg.Havoc { hash; _ } ->
      base + Cache.Geometry.op_cycles (t.hash_weight hash)
  | _ -> base
