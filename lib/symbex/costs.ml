let instr_local (geom : Cache.Geometry.t) instr =
  let base = Cache.Geometry.op_cycles (Ir.Cfg.weight instr) in
  match instr with
  | Ir.Cfg.Load _ | Ir.Cfg.Store _ -> base + geom.lat_l1
  | Ir.Cfg.Havoc { hash; _ } ->
      base + Cache.Geometry.op_cycles (Hashrev.Hashes.lookup hash).weight
  | _ -> base
