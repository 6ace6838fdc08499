(* Depth-first post-order over the call graph from the entry, then any
   unreached functions, so the order covers the whole program; a gray node
   on the stack means recursion. *)
let topo_order (program : Cfg.t) =
  let color = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some `Black -> ()
    | Some `Gray ->
        invalid_arg ("Icfg.topo_order: recursive call involving " ^ name)
    | None ->
        Hashtbl.replace color name `Gray;
        Array.iter
          (function
            | Cfg.Call { func; _ } ->
                if not (Hashtbl.mem program.funcs func) then
                  invalid_arg
                    (Printf.sprintf
                       "Icfg.topo_order: %s calls undefined function %s" name
                       func);
                visit func
            | _ -> ())
          (Cfg.func program name).body;
        Hashtbl.replace color name `Black;
        order := name :: !order
  in
  visit program.entry;
  Hashtbl.iter
    (fun name _ -> if not (Hashtbl.mem color name) then visit name)
    program.funcs;
  List.rev !order
