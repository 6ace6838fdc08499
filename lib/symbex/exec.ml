(* Raw instructions one state may run per packet. *)
let packet_budget = 100_000

type fork = {
  preferred : State.t;
  deferred : State.t list;
  at_loop_head : bool;
}

type kill_reason =
  | Packet_budget
  | Heap_exhausted of string
  | Memory_fault of string
  | Undefined_var of string
  | Arity_mismatch of string
  | No_pointer_target of string
  | Infeasible_branch

let reason_label = function
  | Packet_budget -> "packet-budget"
  | Heap_exhausted _ -> "heap-exhausted"
  | Memory_fault _ -> "memory-fault"
  | Undefined_var _ -> "undefined-var"
  | Arity_mismatch _ -> "arity-mismatch"
  | No_pointer_target _ -> "no-pointer-target"
  | Infeasible_branch -> "infeasible-branch"

(* A state-local fault, distinct from engine bugs: kills the state, never
   the driver. *)
let reason_is_fault = function
  | Heap_exhausted _ | Memory_fault _ | Undefined_var _ | Arity_mismatch _ ->
      true
  | Packet_budget | No_pointer_target _ | Infeasible_branch -> false

type step_result =
  | Running of State.t
  | Forked of fork
  | Packet_done of State.t
  | Killed of State.t * kill_reason

open State

(* Internal signal for state-local faults detected mid-instruction; [step]
   converts it into [Killed]. *)
exception Fault of kill_reason

(* Evaluate a program expression to a symbolic value under the frame
   environment. *)
let eval_pexpr (frame : frame) (e : Ir.Expr.pexpr) : Ir.Expr.sexpr =
  let lookup name =
    match Smap.find_opt name frame.env with
    | Some v -> v
    | None -> raise (Fault (Undefined_var name))
  in
  Solver.Simplify.expr (Ir.Expr.subst lookup e)

let set_var (t : State.t) name value =
  { t with frame = { t.frame with env = Smap.add name value t.frame.env } }

let advance (t : State.t) pc = { t with frame = { t.frame with pc } }

(* Account one executed instruction: weighted retirement cost plus optional
   memory latency. *)
let charge (t : State.t) instr ?(mem_latency = 0) ?(load = false)
    ?(store = false) ?(miss = false) ?(extra_weight = 0) () =
  let weight = Ir.Cfg.weight instr + extra_weight in
  let cycles = Cache.Geometry.op_cycles weight + mem_latency in
  let c = t.cur in
  {
    t with
    cur =
      {
        instrs = c.instrs + weight;
        loads = (c.loads + if load then 1 else 0);
        stores = (c.stores + if store then 1 else 0);
        l3_misses = (c.l3_misses + if miss then 1 else 0);
        cycles = c.cycles + cycles;
      };
    steps = t.steps + 1;
  }

(* Pointers whose constrained domain is this small fork one state per
   feasible target — standard KLEE behaviour for tiny resolutions (a trie
   node's two children).  Anything larger goes through the cache model's
   greedy adversarial concretization (§3.3, limitation 3). *)
let fork_domain_limit = 8

(* Resolve a symbolic pointer: either a forked list of (value, constraint)
   pairs, or a single adversarial choice from the cache model. *)
type resolution =
  | Small of (int * Ir.Expr.sexpr) list
  | Adversarial

let resolve_pointer (t : State.t) addr_e =
  match addr_e with
  | Ir.Expr.Const _ -> Adversarial (* concrete: model handles directly *)
  | _ ->
      let dom = Solver.Pc.domain_of t.pcs addr_e in
      if Solver.Domain.cardinal dom > fork_domain_limit then Adversarial
      else begin
        let feasible = ref [] in
        Solver.Domain.iter dom (fun v ->
            let c = Solver.Simplify.expr (Ir.Expr.Cmp (Eq, addr_e, Const v)) in
            if Solver.Pc.feasible t.pcs ~query:c then
              feasible := (v, c) :: !feasible);
        Small (List.rev !feasible)
      end

(* A memory access through [addr_e]: resolves the pointer, runs the cache
   model, and hands the outcome to [finish] — once for a single target, or
   once per forked child when the pointer has a few feasible targets.
   [finish t addr latency miss constraint] performs the access itself. *)
let access (t : State.t) addr_e ~kind finish =
  match resolve_pointer t addr_e with
  | Adversarial ->
      let cache, o = Cache.Model.access_symbolic t.cache ~pc:t.pcs addr_e in
      Running (finish { t with cache } o.addr o.latency o.miss o.added)
  | Small [] -> Killed (t, No_pointer_target kind)
  | Small [ (v, c) ] ->
      let cache, o = Cache.Model.access_concrete t.cache v in
      Running (finish { t with cache } o.addr o.latency o.miss (Some c))
  | Small targets ->
      let children =
        List.map
          (fun (v, c) ->
            let cache, o = Cache.Model.access_concrete t.cache v in
            {
              (finish { t with cache } o.addr o.latency o.miss (Some c)) with
              id = State.fresh_id ();
            })
          targets
      in
      Forked
        {
          preferred = List.hd children;
          deferred = List.tl children;
          at_loop_head = false;
        }

(* A branch condition as a path-constraint pair (taken, not taken). *)
let branch_constraints cond =
  let taken = Solver.Simplify.expr cond in
  let not_taken = Solver.Simplify.negate cond in
  (taken, not_taken)

let rec step (t : State.t) : step_result =
  if t.finished then invalid_arg "Exec.step: state already finished";
  if t.steps >= packet_budget then Killed (t, Packet_budget)
  else
    let frame = t.frame in
    let instr = frame.func.Ir.Cfg.body.(frame.pc) in
    try step_instr t frame instr with Fault reason -> Killed (t, reason)

and step_instr (t : State.t) frame instr : step_result =
    match instr with
    | Ir.Cfg.Assign (x, e) ->
        let v = eval_pexpr frame e in
        let t = charge t instr () in
        Running (advance (set_var t x v) (frame.pc + 1))
    | Ir.Cfg.Load { dst; addr; width } ->
        let addr_e = eval_pexpr frame addr in
        let finish t concrete_addr o_latency o_miss extra_pc =
          let value =
            match Ir.Memory.try_read t.State.mem ~addr:concrete_addr ~width with
            | Ok v -> v
            | Error msg -> raise (Fault (Memory_fault msg))
          in
          let t = match extra_pc with Some c -> State.add_pc t c | None -> t in
          let t =
            charge t instr ~mem_latency:o_latency ~load:true ~miss:o_miss ()
          in
          advance (set_var t dst value) (frame.pc + 1)
        in
        access t addr_e ~kind:"load" finish
    | Ir.Cfg.Store { addr; value; width } ->
        let addr_e = eval_pexpr frame addr in
        let v = eval_pexpr frame value in
        let finish t concrete_addr o_latency o_miss extra_pc =
          let mem =
            match Ir.Memory.try_write t.State.mem ~addr:concrete_addr ~width v with
            | Ok mem -> mem
            | Error msg -> raise (Fault (Memory_fault msg))
          in
          let t = match extra_pc with Some c -> State.add_pc t c | None -> t in
          let t = { t with State.mem } in
          let t =
            charge t instr ~mem_latency:o_latency ~store:true ~miss:o_miss ()
          in
          advance t (frame.pc + 1)
        in
        access t addr_e ~kind:"store" finish
    | Ir.Cfg.Alloc { dst; bytes } -> (
        match Ir.Memory.try_alloc t.mem ~bytes with
        | Error msg -> Killed (t, Heap_exhausted msg)
        | Ok (mem, base) ->
            let t = charge { t with mem } instr () in
            Running (advance (set_var t dst (Ir.Expr.Const base)) (frame.pc + 1)))
    | Ir.Cfg.Jump target ->
        let t = charge t instr () in
        Running (advance t target)
    | Ir.Cfg.Branch { cond; if_true; if_false; loop_head } -> (
        let cond_e = eval_pexpr frame cond in
        let t = charge t instr () in
        match cond_e with
        | Ir.Expr.Const c ->
            Running (advance t (if c <> 0 then if_true else if_false))
        | _ -> (
            let taken_c, not_taken_c = branch_constraints cond_e in
            let feasible c = Solver.Pc.feasible t.pcs ~query:c in
            let mk c pc = State.add_pc (advance t pc) c in
            match (feasible taken_c, feasible not_taken_c) with
            | true, false -> Running (mk taken_c if_true)
            | false, true -> Running (mk not_taken_c if_false)
            | false, false -> Killed (t, Infeasible_branch)
            | true, true ->
                let taken = { (mk taken_c if_true) with id = State.fresh_id () } in
                let not_taken =
                  { (mk not_taken_c if_false) with id = State.fresh_id () }
                in
                (* At a loop head, the taken branch is "one more iteration" —
                   the SEE greedily explores it (§3.4). *)
                Forked
                  {
                    preferred = taken;
                    deferred = [ not_taken ];
                    at_loop_head = loop_head;
                  }))
    | Ir.Cfg.Call { dst; func; args } ->
        let callee = Ir.Cfg.func t.program func in
        if List.length args <> List.length callee.params then
          raise (Fault (Arity_mismatch func));
        let bindings =
          List.map2
            (fun param arg -> (param, eval_pexpr frame arg))
            callee.params args
        in
        let env =
          List.fold_left (fun env (p, v) -> Smap.add p v env) Smap.empty bindings
        in
        let t = charge t instr () in
        let caller = { t.frame with pc = frame.pc + 1 } in
        Running
          {
            t with
            frame = { func = callee; pc = 0; env; ret_to = dst };
            stack = caller :: t.stack;
          }
    | Ir.Cfg.Return e -> (
        let v =
          match e with
          | Some e -> eval_pexpr frame e
          | None -> Ir.Expr.Const 0
        in
        let t = charge t instr () in
        match t.stack with
        | [] -> Packet_done t
        | caller :: rest ->
            let caller =
              match frame.ret_to with
              | Some x -> { caller with env = Smap.add x v caller.env }
              | None -> caller
            in
            Running { t with frame = caller; stack = rest })
    | Ir.Cfg.Havoc { dst; input; hash } ->
        let input_e = eval_pexpr frame input in
        let h = Ir.Hashes.lookup hash in
        let out_sym = Ir.Expr.fresh ~label:hash ~width:h.bits in
        let t = charge t instr ~extra_weight:h.weight () in
        let t = set_var t dst (Ir.Expr.Leaf out_sym) in
        let t =
          { t with havocs = (t.pkt, hash, input_e, out_sym) :: t.havocs }
        in
        Running (advance t (frame.pc + 1))
