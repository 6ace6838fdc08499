type havoc = {
  hv_pkt : int;
  hv_hash : string;
  hv_input : Ir.Expr.sexpr;
  hv_output : Ir.Expr.sym;
}

type outcome = {
  constraints : Ir.Expr.sexpr list;
  reconciled : havoc list;
  unreconciled : havoc list;
}

(* Hash values step 1 proposes per havoc. *)
let candidates_per_havoc = 24

(* Step 1: candidate hash values for one havoc output under [pc]: the value
   a satisfying model assigns, then a spread of the output's abstract
   domain. *)
let value_candidates ~rng pc output =
  let out_expr : Ir.Expr.sexpr = Leaf output in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let push v =
    if v >= 0 && not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  (match Solver.Pc.sat ~rng pc with
  | Sat m -> push (Solver.Solve.Model.get m output)
  | Unsat | Unknown -> ());
  let dom = Solver.Pc.domain_of pc out_expr in
  let d : Solver.Domain.t = dom in
  let card = Solver.Domain.cardinal d in
  let stride = max 1 (card / candidates_per_havoc) in
  let k = ref 0 in
  while List.length !out < candidates_per_havoc && !k < card do
    push (d.lo + (!k * d.step));
    k := !k + stride
  done;
  List.rev !out

(* Steps 2+3 for one havoc: walk candidate hash values, invert each through
   the table, and commit the first (value, key) pair the solver accepts. *)
let reconcile_one ~tables ~rng pc h =
  match tables h.hv_hash with
  | None -> None
  | Some table ->
      let commit hv key =
        let eq_out : Ir.Expr.sexpr = Cmp (Eq, Leaf h.hv_output, Const hv) in
        let eq_in : Ir.Expr.sexpr = Cmp (Eq, h.hv_input, Const key) in
        let pc' = Solver.Pc.add (Solver.Pc.add pc eq_out) eq_in in
        match Solver.Pc.sat ~rng pc' with
        | Sat _ -> Some pc'
        | Unsat ->
            Obs.Log.debug "reconcile: commit UNSAT (pkt %d hv=%d key=0x%x)"
              h.hv_pkt hv key;
            None
        | Unknown ->
            Obs.Log.debug "reconcile: commit UNKNOWN (pkt %d hv=%d)" h.hv_pkt hv;
            None
      in
      let rec try_values = function
        | [] -> None
        | hv :: rest ->
            let rec try_keys = function
              | [] -> try_values rest
              | key :: more -> (
                  match commit hv key with
                  | Some pc' -> Some pc'
                  | None -> try_keys more)
            in
            let keys = Rainbow.invert table hv in
            if keys = [] then
              Obs.Log.debug "reconcile: no preimage (pkt %d hv=%d)" h.hv_pkt hv;
            try_keys keys
      in
      let vals = value_candidates ~rng pc h.hv_output in
      if vals = [] then
        Obs.Log.debug "reconcile: no value candidates (pkt %d)" h.hv_pkt;
      try_values vals

let run ~tables ?(rng = Util.Rng.create 0x5a17) ~pc ~havocs () =
  let ordered =
    List.stable_sort (fun a b -> compare a.hv_pkt b.hv_pkt) havocs
  in
  let pc, reconciled, unreconciled =
    List.fold_left
      (fun (pc, ok, failed) h ->
        match reconcile_one ~tables ~rng pc h with
        | Some pc' -> (pc', h :: ok, failed)
        | None -> (pc, ok, h :: failed))
      (pc, [], []) ordered
  in
  {
    constraints = Solver.Pc.to_list pc;
    reconciled = List.rev reconciled;
    unreconciled = List.rev unreconciled;
  }
