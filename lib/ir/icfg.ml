type t = {
  program : Cfg.t;
  callees : (string, string list) Hashtbl.t;
  topo : string list;
}

let direct_callees (f : Cfg.func) =
  let acc = ref [] in
  Array.iter
    (function
      | Cfg.Call { func; _ } -> if not (List.mem func !acc) then acc := func :: !acc
      | _ -> ())
    f.body;
  List.rev !acc

(* Depth-first post-order over the call graph; a gray node on the stack means
   recursion. *)
let toposort program callees entry =
  let color = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some `Black -> ()
    | Some `Gray -> invalid_arg ("Icfg.make: recursive call involving " ^ name)
    | None ->
        Hashtbl.replace color name `Gray;
        let cs =
          match Hashtbl.find_opt callees name with Some l -> l | None -> []
        in
        List.iter visit cs;
        Hashtbl.replace color name `Black;
        order := name :: !order
  in
  (* Visit from the entry, then any unreached functions, so [topo] covers the
     whole program. *)
  visit entry;
  Hashtbl.iter
    (fun name _ -> if not (Hashtbl.mem color name) then visit name)
    program.Cfg.funcs;
  List.rev !order

let make (program : Cfg.t) =
  let callees = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name f ->
      let cs = direct_callees f in
      List.iter
        (fun c ->
          if not (Hashtbl.mem program.funcs c) then
            invalid_arg
              (Printf.sprintf "Icfg.make: %s calls undefined function %s" name c))
        cs;
      Hashtbl.replace callees name cs)
    program.funcs;
  (* [toposort] already yields callees before callers. *)
  let topo = toposort program callees program.entry in
  { program; callees; topo }

let program t = t.program

let callees t name =
  match Hashtbl.find_opt t.callees name with Some l -> l | None -> []

let topo_order t = t.topo
