type hooks = { on_access : addr:int -> width:int -> write:bool -> unit }

let no_hooks = { on_access = (fun ~addr:_ ~width:_ ~write:_ -> ()) }

type outcome = { ret : int; instrs : int; loads : int; stores : int }

exception Budget_exhausted

type frame = {
  func : Cfg.func;
  env : (string, int) Hashtbl.t;
  ret_to : string option;  (* caller variable receiving the return value *)
}

let eval_expr env e =
  let leaf name =
    match Hashtbl.find_opt env name with
    | Some value -> value
    | None -> invalid_arg ("Interp: undefined variable " ^ name)
  in
  Expr.eval ~leaf e

let new_frame (f : Cfg.func) args ret_to =
  if List.length args <> List.length f.params then
    invalid_arg ("Interp: arity mismatch calling " ^ f.fname);
  let env = Hashtbl.create 16 in
  List.iter2 (fun param arg -> Hashtbl.replace env param arg) f.params args;
  { func = f; env; ret_to }

let call program ~mem ~hooks ?(budget = 10_000_000) fname args =
  let f = Cfg.func program fname in
  let instrs = ref 0 and loads = ref 0 and stores = ref 0 in
  let spend n =
    instrs := !instrs + n;
    if !instrs > budget then raise Budget_exhausted
  in
  (* The stack holds suspended callers; [frame]/[pc] are the running ones. *)
  let rec exec stack frame pc =
    let instr = frame.func.body.(pc) in
    let w = Cfg.weight instr in
    if Obs.Profile.enabled () then begin
      Obs.Profile.enter ~func:frame.func.Cfg.fname ~pc;
      Obs.Profile.add_retire ~weight:w
    end;
    spend w;
    match instr with
    | Cfg.Assign (x, e) ->
        Hashtbl.replace frame.env x (eval_expr frame.env e);
        exec stack frame (pc + 1)
    | Cfg.Load { dst; addr; width } ->
        let a = eval_expr frame.env addr in
        hooks.on_access ~addr:a ~width ~write:false;
        incr loads;
        Hashtbl.replace frame.env dst (Memory.read !mem ~addr:a ~width);
        exec stack frame (pc + 1)
    | Cfg.Store { addr; value; width } ->
        let a = eval_expr frame.env addr in
        let value = eval_expr frame.env value in
        hooks.on_access ~addr:a ~width ~write:true;
        incr stores;
        mem := Memory.write !mem ~addr:a ~width value;
        exec stack frame (pc + 1)
    | Cfg.Alloc { dst; bytes } ->
        let mem', base = Memory.alloc !mem ~bytes in
        mem := mem';
        Hashtbl.replace frame.env dst base;
        exec stack frame (pc + 1)
    | Cfg.Branch { cond; if_true; if_false; loop_head = _ } ->
        let target =
          if eval_expr frame.env cond <> 0 then if_true else if_false
        in
        exec stack frame target
    | Cfg.Jump target -> exec stack frame target
    | Cfg.Call { dst; func; args } ->
        let callee = Cfg.func program func in
        let arg_values = List.map (eval_expr frame.env) args in
        let callee_frame = new_frame callee arg_values dst in
        exec ((frame, pc + 1) :: stack) callee_frame 0
    | Cfg.Return e -> (
        let value = match e with Some e -> eval_expr frame.env e | None -> 0 in
        match stack with
        | [] -> value
        | (caller, resume_pc) :: rest ->
            (match frame.ret_to with
            | Some x -> Hashtbl.replace caller.env x value
            | None -> ());
            exec rest caller resume_pc)
    | Cfg.Havoc { dst; input; hash } ->
        let input_value = eval_expr frame.env input in
        let h = Hashes.lookup hash in
        if Obs.Profile.enabled () then Obs.Profile.add_retire ~weight:h.weight;
        spend h.weight;
        Hashtbl.replace frame.env dst (h.apply input_value);
        exec stack frame (pc + 1)
  in
  let ret = exec [] (new_frame f args None) 0 in
  { ret; instrs = !instrs; loads = !loads; stores = !stores }
