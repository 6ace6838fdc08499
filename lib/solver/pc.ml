open Ir.Expr

module SymMap = Map.Make (struct
  type t = sym

  let compare = compare_sym
end)

module IntMap = Map.Make (Int)

module Added = Set.Make (struct
  type t = sexpr

  let compare = compare
end)

(* [seq] numbers constraints in insertion order, so newest first is
   decreasing [seq]. *)
type entry = { seq : int; raw : sexpr; prepared : Solve.prepared }

(* The constraints connected through shared symbols, newest first, and the
   symbols they mention. *)
type component = {
  entries : entry list;
  count : int;
  syms : sym list;
  n_syms : int;
}

type t = {
  size : int;
  all : entry list;  (* as added, newest first *)
  ground : entry list;  (* constraints that mention no symbol *)
  n_ground : int;
  owner : int SymMap.t;  (* symbol -> id of its component *)
  components : component IntMap.t;
  added : Added.t;
}

let empty =
  {
    size = 0;
    all = [];
    ground = [];
    n_ground = 0;
    owner = SymMap.empty;
    components = IntMap.empty;
    added = Added.empty;
  }

let to_list pc = List.map (fun e -> e.raw) pc.all
let length pc = pc.size

let free_syms e =
  fold_leaves
    (fun acc s ->
      if List.exists (fun s' -> compare_sym s s' = 0) acc then acc else s :: acc)
    [] e

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x.seq > y.seq then x :: merge a' b else y :: merge a b'

(* Adds [e], which mentions [syms], to the component they share: the
   components it touches are merged into the largest one, so each symbol
   changes owner O(log n) times. *)
let join pc e syms =
  let ids, fresh =
    List.fold_left
      (fun (ids, fresh) s ->
        match SymMap.find_opt s pc.owner with
        | Some id -> ((if List.mem id ids then ids else id :: ids), fresh)
        | None -> (ids, s :: fresh))
      ([], []) syms
  in
  let touched = List.map (fun id -> (id, IntMap.find id pc.components)) ids in
  let id, largest =
    match touched with
    | [] -> (e.seq, { entries = []; count = 0; syms = []; n_syms = 0 })
    | first :: rest ->
        List.fold_left
          (fun ((_, b) as best) ((_, c) as other) ->
            if c.n_syms > b.n_syms then other else best)
          first rest
  in
  let absorbed = List.filter (fun (id', _) -> id' <> id) touched in
  let moved =
    List.fold_left (fun acc (_, c) -> List.rev_append c.syms acc) fresh absorbed
  in
  let entries, count =
    List.fold_left
      (fun (entries, count) (_, c) -> (merge entries c.entries, count + c.count))
      (largest.entries, largest.count)
      absorbed
  in
  let component =
    {
      entries = e :: entries;
      count = count + 1;
      syms = List.rev_append moved largest.syms;
      n_syms = largest.n_syms + List.length moved;
    }
  in
  let components =
    List.fold_left (fun m (id', _) -> IntMap.remove id' m) pc.components absorbed
  in
  {
    pc with
    owner = List.fold_left (fun m s -> SymMap.add s id m) pc.owner moved;
    components = IntMap.add id component components;
  }

let add pc c =
  match c with
  | Const k when k <> 0 -> pc
  | _ when Added.mem c pc.added -> pc
  | _ -> (
      let e = { seq = pc.size; raw = c; prepared = Solve.prepare c } in
      let pc =
        {
          pc with
          size = pc.size + 1;
          all = e :: pc.all;
          added = Added.add c pc.added;
        }
      in
      match free_syms c with
      | [] -> { pc with ground = e :: pc.ground; n_ground = pc.n_ground + 1 }
      | syms -> join pc e syms)

let of_list cs = List.fold_right (fun c pc -> add pc c) cs empty

(* The components [e]'s symbols touch, plus the ground constraints, newest
   first, and how many constraints that leaves out.  A ground [e] keeps
   everything. *)
let slice_of pc e =
  let ids =
    match free_syms e with
    | [] -> List.map fst (IntMap.bindings pc.components)
    | syms ->
        List.fold_left
          (fun ids s ->
            match SymMap.find_opt s pc.owner with
            | Some id when not (List.mem id ids) -> id :: ids
            | Some _ | None -> ids)
          [] syms
  in
  let entries, count =
    List.fold_left
      (fun (entries, count) id ->
        let c = IntMap.find id pc.components in
        (merge entries c.entries, count + c.count))
      (pc.ground, pc.n_ground) ids
  in
  (entries, pc.size - count)

let prepared entries = List.map (fun e -> e.prepared) entries

let slice pc ~query =
  let entries, dropped = slice_of pc (Simplify.expr query) in
  (List.map (fun e -> e.raw) entries, dropped)

let feasible pc ~query =
  let want_profile = Obs.Profile.enabled () in
  let t0 = if want_profile then Unix.gettimeofday () else 0. in
  let q = Solve.prepare query in
  let entries, dropped = slice_of pc (Solve.prepared_expr q) in
  Qcache.note_query ~dropped;
  let ps = q :: prepared entries in
  if want_profile then
    Obs.Profile.add_timer "solver.cache" (Unix.gettimeofday () -. t0);
  Solve.feasible_prepared ps

let sat ?rng pc = Solve.sat_prepared ?rng (prepared pc.all)

let domain_of pc e =
  let e = Simplify.expr e in
  Solve.domain_of_prepared (prepared (fst (slice_of pc e))) e
