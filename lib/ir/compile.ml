(* Compilation strategy: one walk over each function turns each expression
   into nested closures over a flat int array and each instruction into a
   [ctx -> env -> int] closure returning the next program counter; a
   variable gets its slot in that array the first time the walk meets it
   (parameters first).  The effect of a fusible instruction has one
   compiler, [compile_action]; its per-instruction closure charges its
   weight and runs that effect.  Function calls recurse through a patched
   table.  A return stores its value in the context and yields the
   sentinel pc [-1], which ends the callee's dispatch loop.

   Steady-state execution allocates nothing.  Each call site owns the buffer
   its arguments are evaluated into ([exec] copies them into the callee's
   frame before the callee runs, so a recursive call may refill it), each
   function keeps a pool of frames it zeroes on entry, and a Havoc site
   resolves its hash in {!Hashes} when it is compiled, so a program that
   havocs an undeclared hash fails in {!program}.  A frame abandoned by an
   exception (budget exhaustion) is simply not returned to its pool.  All of
   this is mutable state owned by the compiled program.

   On top of the per-instruction closures, {!program} fuses maximal
   straight-line runs of statically-weighted instructions —
   Assign/Load/Store/Alloc, chained through unconditional jumps — into one
   closure per run head that charges the whole run's retirement weight once
   and then executes the run's action closures back to back.  The fused
   closure keeps a guard to the original per-instruction path, taken when
   the profiler is live (per-instruction attribution must stay bit-identical)
   or when the remaining budget is below the run's total weight (so
   {!Interp.Budget_exhausted} fires at exactly the same instruction as
   {!Interp}).  Dynamic-weight instructions (Call, Havoc) and control
   (Branch, Return) always terminate a run.

   One semantic delta vs {!Interp}: reading a never-written variable yields
   0 instead of raising — well-formed NF code never does either. *)

type ctx = {
  mem : Memory.Flat.t;
  hooks : Interp.hooks;
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable remaining : int;
  mutable ret : int;  (* the value of the last executed return *)
}

(* The pc a return yields: ends the dispatch loop of the running function. *)
let returned = -1

type cfunc = {
  cf_name : string;
  mutable nslots : int;  (* set once the function is compiled *)
  param_slots : int array;
  mutable code : (ctx -> int array -> int) array;
  mutable pool : int array array;  (* free frames in [0, n_free) *)
  mutable n_free : int;
}

type t = { funcs : (string, cfunc) Hashtbl.t }

(* ------------------------------------------------------------------ *)
(* Expression compilation                                               *)
(* ------------------------------------------------------------------ *)

(* A variable's frame slot, given the first time compilation meets it. *)
let slot slots name =
  match Hashtbl.find_opt slots name with
  | Some s -> s
  | None ->
      let s = Hashtbl.length slots in
      Hashtbl.replace slots name s;
      s

let compile_expr slots (e : Expr.pexpr) : int array -> int =
  let rec go : Expr.pexpr -> int array -> int = function
    | Const c -> fun _ -> c
    | Leaf name ->
        let s = slot slots name in
        fun env -> env.(s)
    | Unop (Neg, a) ->
        let fa = go a in
        fun env -> -fa env
    | Unop (Bnot, a) ->
        let fa = go a in
        fun env -> lnot (fa env)
    | Binop (op, a, b) -> (
        let fa = go a and fb = go b in
        match op with
        | Add -> fun env -> fa env + fb env
        | Sub -> fun env -> fa env - fb env
        | Mul -> fun env -> fa env * fb env
        | Div -> fun env -> fa env / fb env
        | Rem -> fun env -> fa env mod fb env
        | And -> fun env -> fa env land fb env
        | Or -> fun env -> fa env lor fb env
        | Xor -> fun env -> fa env lxor fb env
        | Shl -> fun env -> fa env lsl fb env
        | Lshr -> fun env -> fa env lsr fb env)
    | Cmp (op, a, b) -> (
        let fa = go a and fb = go b in
        match op with
        | Eq -> fun env -> if fa env = fb env then 1 else 0
        | Ne -> fun env -> if fa env <> fb env then 1 else 0
        | Lt -> fun env -> if fa env < fb env then 1 else 0
        | Le -> fun env -> if fa env <= fb env then 1 else 0)
    | Ite (c, a, b) ->
        let fc = go c and fa = go a and fb = go b in
        fun env -> if fc env <> 0 then fa env else fb env
  in
  go e

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                              *)
(* ------------------------------------------------------------------ *)

let spend ctx w =
  ctx.instrs <- ctx.instrs + w;
  ctx.remaining <- ctx.remaining - w;
  if ctx.remaining < 0 then raise Interp.Budget_exhausted

(* The function-call path needs to execute other compiled functions; tied
   through a forward reference patched below. *)
let exec_ref : (ctx -> cfunc -> int array -> int) ref =
  ref (fun _ _ _ -> assert false)

(* The effect of a fusible instruction — its memory, hook and load/store-
   counter behavior — without [spend] (the caller charges it) and without a
   next pc (control is static). *)
let compile_action slots (instr : Cfg.instr) : ctx -> int array -> unit =
  match instr with
  | Cfg.Assign (x, e) ->
      let fe = compile_expr slots e in
      let sx = slot slots x in
      fun _ env -> env.(sx) <- fe env
  | Cfg.Load { dst; addr; width } ->
      let fa = compile_expr slots addr in
      let sd = slot slots dst in
      fun ctx env ->
        let a = fa env in
        ctx.hooks.Interp.on_access ~addr:a ~width ~write:false;
        ctx.loads <- ctx.loads + 1;
        env.(sd) <- Memory.Flat.read ctx.mem ~addr:a ~width
  | Cfg.Store { addr; value; width } ->
      let fa = compile_expr slots addr and fv = compile_expr slots value in
      fun ctx env ->
        let a = fa env in
        ctx.hooks.Interp.on_access ~addr:a ~width ~write:true;
        ctx.stores <- ctx.stores + 1;
        Memory.Flat.write ctx.mem ~addr:a ~width (fv env)
  | Cfg.Alloc { dst; bytes } ->
      let sd = slot slots dst in
      fun ctx env -> env.(sd) <- Memory.Flat.alloc ctx.mem ~bytes
  | Cfg.Branch _ | Cfg.Jump _ | Cfg.Call _ | Cfg.Return _ | Cfg.Havoc _ ->
      invalid_arg "Compile.compile_action: not a fusible instruction"

let compile_instr funcs slots pc (instr : Cfg.instr) : ctx -> int array -> int =
  let w = Cfg.weight instr in
  match instr with
  | Cfg.Assign _ | Cfg.Load _ | Cfg.Store _ | Cfg.Alloc _ ->
      let act = compile_action slots instr and next = pc + 1 in
      fun ctx env ->
        spend ctx w;
        act ctx env;
        next
  | Cfg.Branch { cond; if_true; if_false; loop_head = _ } ->
      let fc = compile_expr slots cond in
      fun ctx env ->
        spend ctx w;
        if fc env <> 0 then if_true else if_false
  | Cfg.Jump target ->
      fun ctx _ ->
        spend ctx w;
        target
  | Cfg.Call { dst; func; args } ->
      let fargs = Array.of_list (List.map (compile_expr slots) args) in
      let argv = Array.make (Array.length fargs) 0 in
      let sd = match dst with Some d -> slot slots d | None -> -1 in
      let next = pc + 1 in
      let callee =
        match Hashtbl.find_opt funcs func with
        | Some c -> c
        | None -> invalid_arg ("Compile: call to unknown function " ^ func)
      in
      fun ctx env ->
        spend ctx w;
        for k = 0 to Array.length fargs - 1 do
          Array.unsafe_set argv k ((Array.unsafe_get fargs k) env)
        done;
        let v = !exec_ref ctx callee argv in
        if sd >= 0 then env.(sd) <- v;
        next
  | Cfg.Return None ->
      fun ctx _ ->
        spend ctx w;
        ctx.ret <- 0;
        returned
  | Cfg.Return (Some e) ->
      let fe = compile_expr slots e in
      fun ctx env ->
        spend ctx w;
        ctx.ret <- fe env;
        returned
  | Cfg.Havoc { dst; input; hash } ->
      let fi = compile_expr slots input in
      let sd = slot slots dst and next = pc + 1 in
      let { Hashes.apply; weight = hw; _ } = Hashes.lookup hash in
      fun ctx env ->
        spend ctx w;
        let v = fi env in
        if Obs.Profile.enabled () then Obs.Profile.add_retire ~weight:hw;
        spend ctx hw;
        env.(sd) <- apply v;
        next

(* Profiler shim around one compiled instruction: marks the attribution site
   and charges retirement before the instruction body runs (so its memory
   hooks attribute here too).  One ref read when the profiler is off. *)
let instrument fname pc w code =
 fun ctx env ->
  if Obs.Profile.enabled () then begin
    Obs.Profile.enter ~func:fname ~pc;
    Obs.Profile.add_retire ~weight:w
  end;
  code ctx env

(* ------------------------------------------------------------------ *)
(* Superblock fusion                                                    *)
(* ------------------------------------------------------------------ *)

(* Statically-weighted, fall-through instructions: the only ones whose cost
   can be prefunded in one batch without moving the budget-exhaustion
   point. *)
let fusible = function
  | Cfg.Assign _ | Cfg.Load _ | Cfg.Store _ | Cfg.Alloc _ -> true
  | Cfg.Branch _ | Cfg.Jump _ | Cfg.Call _ | Cfg.Return _ | Cfg.Havoc _ ->
      false

(* Cap on how many instructions one superblock may absorb; bounds both the
   chain walk at compile time and the prefunded weight at run time. *)
let max_chain = 128

(* Fuse runs into [base] (the per-instruction closure array).  Control can
   enter an instruction only at a block leader ({!Cfg.leaders}) or by fall-
   through; fused closures are installed at run heads, so entering a run
   mid-way (necessarily at a jump target, which is itself a run head) never
   double-charges.  A run starts at a fusible leader or after a non-fusible
   instruction. *)
let superblockify slots (f : Cfg.func) base =
  let body = f.body in
  let n = Array.length body in
  let is_leader = Cfg.leaders f in
  let code = Array.copy base in
  for start = 0 to n - 1 do
    let starts_run =
      fusible body.(start)
      && (is_leader.(start) || not (fusible body.(start - 1)))
    in
    if starts_run then begin
      (* Walk the unique control path: fusible fall-throughs, chaining
         through unconditional jumps (each visited at most once per chain,
         so jump-only cycles terminate). *)
      let visited = Hashtbl.create 8 in
      let actions = ref [] and total = ref 0 and steps = ref 0 in
      let pc = ref start in
      let stop = ref false in
      while (not !stop) && !steps < max_chain && !pc < n do
        if Hashtbl.mem visited !pc then stop := true
        else begin
          Hashtbl.replace visited !pc ();
          match body.(!pc) with
          | Cfg.Jump target ->
              total := !total + Cfg.weight body.(!pc);
              incr steps;
              pc := target
          | instr when fusible instr ->
              total := !total + Cfg.weight instr;
              actions := compile_action slots instr :: !actions;
              incr steps;
              incr pc
          | _ -> stop := true
        end
      done;
      if !steps >= 2 then begin
        let acts = Array.of_list (List.rev !actions) in
        let na = Array.length acts in
        let w_total = !total and n_steps = !steps and next = !pc in
        code.(start) <-
          (fun ctx env ->
            if Obs.Profile.enabled () || ctx.remaining < w_total then begin
              (* Per-instruction path: exact profile attribution, and the
                 budget raises at precisely the unfused instruction. *)
              let pc = ref start in
              for _ = 1 to n_steps do
                pc := (Array.unsafe_get base !pc) ctx env
              done;
              !pc
            end
            else begin
              ctx.instrs <- ctx.instrs + w_total;
              ctx.remaining <- ctx.remaining - w_total;
              for i = 0 to na - 1 do
                (Array.unsafe_get acts i) ctx env
              done;
              next
            end)
      end
    end
  done;
  code

(* A zeroed frame from [f]'s pool (a fresh one when every pooled frame is
   in use by an active call), so a never-written variable reads 0.  Frames
   are a few dozen slots: a loop clears them faster than [Array.fill], a C
   call. *)
let take_frame f =
  if f.n_free = 0 then Array.make f.nslots 0
  else begin
    f.n_free <- f.n_free - 1;
    let env = Array.unsafe_get f.pool f.n_free in
    for i = 0 to f.nslots - 1 do
      Array.unsafe_set env i 0
    done;
    env
  end

let release_frame f env =
  if f.n_free = Array.length f.pool then begin
    let pool = Array.make (max 1 (2 * f.n_free)) env in
    Array.blit f.pool 0 pool 0 f.n_free;
    f.pool <- pool
  end;
  Array.unsafe_set f.pool f.n_free env;
  f.n_free <- f.n_free + 1

let exec ctx (f : cfunc) argv =
  let params = f.param_slots in
  if Array.length argv <> Array.length params then
    invalid_arg ("Compile: arity mismatch calling " ^ f.cf_name);
  let env = take_frame f in
  for k = 0 to Array.length params - 1 do
    env.(Array.unsafe_get params k) <- Array.unsafe_get argv k
  done;
  let code = f.code in
  let pc = ref 0 in
  while !pc <> returned do
    pc := code.(!pc) ctx env
  done;
  release_frame f env;
  ctx.ret

let () = exec_ref := exec

let program (p : Cfg.t) =
  let funcs = Hashtbl.create 16 in
  (* Placeholders first so calls can resolve in one pass; a function's
     parameters take its first slots. *)
  let pending =
    Hashtbl.fold
      (fun name (f : Cfg.func) acc ->
        let slots = Hashtbl.create 16 in
        let cf =
          {
            cf_name = name;
            nslots = 0;
            param_slots = Array.of_list (List.map (slot slots) f.params);
            code = [||];
            pool = [||];
            n_free = 0;
          }
        in
        Hashtbl.replace funcs name cf;
        (f, slots, cf) :: acc)
      p.Cfg.funcs []
  in
  List.iter
    (fun ((f : Cfg.func), slots, cf) ->
      let base =
        Array.mapi
          (fun pc instr ->
            instrument cf.cf_name pc (Cfg.weight instr)
              (compile_instr funcs slots pc instr))
          f.body
      in
      cf.code <- superblockify slots f base;
      cf.nslots <- max 1 (Hashtbl.length slots))
    pending;
  { funcs }

type fn = cfunc

let lookup t fname =
  match Hashtbl.find_opt t.funcs fname with
  | Some f -> f
  | None -> invalid_arg ("Compile.lookup: unknown function " ^ fname)

let context ~mem ~hooks =
  { mem; hooks; instrs = 0; loads = 0; stores = 0; remaining = 0; ret = 0 }

let run ctx ?(budget = 10_000_000) (f : fn) argv =
  ctx.instrs <- 0;
  ctx.loads <- 0;
  ctx.stores <- 0;
  ctx.remaining <- budget;
  exec ctx f argv

let instrs ctx = ctx.instrs

let outcome ctx =
  {
    Interp.ret = ctx.ret;
    instrs = ctx.instrs;
    loads = ctx.loads;
    stores = ctx.stores;
  }

let call (f : fn) ~mem ~hooks ?budget argv =
  let ctx = context ~mem ~hooks in
  ignore (run ctx ?budget f argv : int);
  outcome ctx
