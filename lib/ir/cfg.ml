type pexpr = Expr.pexpr

type instr =
  | Assign of string * pexpr
  | Load of { dst : string; addr : pexpr; width : int }
  | Store of { addr : pexpr; value : pexpr; width : int }
  | Alloc of { dst : string; bytes : int }
  | Branch of { cond : pexpr; if_true : int; if_false : int; loop_head : bool }
  | Jump of int
  | Call of { dst : string option; func : string; args : pexpr list }
  | Return of pexpr option
  | Havoc of { dst : string; input : pexpr; hash : string }

type func = { fname : string; params : string list; body : instr array }

type t = {
  name : string;
  funcs : (string, func) Hashtbl.t;
  entry : string;
  regions : Memory.spec list;
  heap_bytes : int;
}

let func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> invalid_arg ("Cfg.func: unknown function " ^ name)

let entry_func t = func t t.entry

let successors f pc =
  match f.body.(pc) with
  | Branch { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Jump target -> [ target ]
  | Return _ -> []
  | Assign _ | Load _ | Store _ | Alloc _ | Call _ | Havoc _ -> [ pc + 1 ]

let leaders f =
  let n = Array.length f.body in
  let is_leader = Array.make n false in
  let mark pc = if pc >= 0 && pc < n then is_leader.(pc) <- true in
  mark 0;
  Array.iteri
    (fun pc -> function
      | Branch { if_true; if_false; _ } ->
          mark if_true;
          mark if_false;
          mark (pc + 1)
      | Jump target ->
          mark target;
          mark (pc + 1)
      | Return _ -> mark (pc + 1)
      | Assign _ | Load _ | Store _ | Alloc _ | Call _ | Havoc _ -> ())
    f.body;
  is_leader

let weight = function
  | Assign (_, e) -> 1 + Expr.ops e
  | Load { addr; _ } -> 1 + Expr.ops addr
  | Store { addr; value; _ } -> 1 + Expr.ops addr + Expr.ops value
  | Alloc _ -> 1
  | Branch { cond; _ } -> 1 + Expr.ops cond
  | Jump _ -> 1
  | Call { args; _ } ->
      List.fold_left (fun acc a -> acc + Expr.ops a) 1 args
  | Return None -> 1
  | Return (Some e) -> 1 + Expr.ops e
  | Havoc { input; _ } -> 1 + Expr.ops input

let pp_var ppf s = Format.pp_print_string ppf s
let pp_pexpr = Expr.pp pp_var

let pp_instr ppf = function
  | Assign (x, e) -> Format.fprintf ppf "%s = %a" x pp_pexpr e
  | Load { dst; addr; width } ->
      Format.fprintf ppf "%s = load%d %a" dst width pp_pexpr addr
  | Store { addr; value; width } ->
      Format.fprintf ppf "store%d %a, %a" width pp_pexpr addr pp_pexpr value
  | Alloc { dst; bytes } -> Format.fprintf ppf "%s = alloc %d" dst bytes
  | Branch { cond; if_true; if_false; loop_head } ->
      Format.fprintf ppf "br%s %a, %d, %d"
        (if loop_head then ".loop" else "")
        pp_pexpr cond if_true if_false
  | Jump target -> Format.fprintf ppf "jmp %d" target
  | Call { dst; func; args } ->
      let pp_args = Format.pp_print_list ~pp_sep:(fun ppf () ->
          Format.pp_print_string ppf ", ") pp_pexpr in
      (match dst with
      | Some d -> Format.fprintf ppf "%s = call %s(%a)" d func pp_args args
      | None -> Format.fprintf ppf "call %s(%a)" func pp_args args)
  | Return None -> Format.fprintf ppf "ret"
  | Return (Some e) -> Format.fprintf ppf "ret %a" pp_pexpr e
  | Havoc { dst; input; hash } ->
      Format.fprintf ppf "%s = castan_havoc(%a, %s)" dst pp_pexpr input hash

let pp ppf t =
  Format.fprintf ppf "program %s (entry %s)@." t.name t.entry;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.funcs [] in
  let names = List.sort compare names in
  let pp_func name =
    let f = Hashtbl.find t.funcs name in
    Format.fprintf ppf "fn %s(%s):@." f.fname (String.concat ", " f.params);
    Array.iteri
      (fun pc i -> Format.fprintf ppf "  %3d: %a@." pc pp_instr i)
      f.body
  in
  List.iter pp_func names
