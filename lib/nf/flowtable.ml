type t = {
  ft_name : string;
  regions : Ir.Memory.spec list;
  heap_bytes : int;
  functions : Ir.Ast.fdef list;
  hash : Ir.Hashes.t option;
  manual_skew : bool;
}

let lookup_name = "ft_lookup"
let insert_name = "ft_insert"
