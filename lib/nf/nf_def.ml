type t = {
  name : string;
  descr : string;
  program : Ir.Cfg.t;
  keyspaces : (string * Hashrev.Rainbow.keyspace) list;
  shape : Packet.t -> Packet.t;
  manual : (Util.Rng.t -> int -> Packet.t list) option;
  castan_packets : int;
}

let fresh_memory t =
  Ir.Memory.create ~regions:t.program.Ir.Cfg.regions
    ~heap_bytes:t.program.Ir.Cfg.heap_bytes ~inject:Fun.id

let fresh_symbolic_memory t =
  Ir.Memory.create ~regions:t.program.Ir.Cfg.regions
    ~heap_bytes:t.program.Ir.Cfg.heap_bytes
    ~inject:(fun v -> Ir.Expr.Const v)

let region_base regions name =
  match List.assoc_opt name (Ir.Memory.layout regions) with
  | Some r -> r.Ir.Memory.base
  | None -> invalid_arg ("Nf_def.region_base: unknown region " ^ name)
