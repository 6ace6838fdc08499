module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* A class key identifies one contention set instance.  For the empirical
   model the key combines the 1GB page with the discovered class (same page
   offsets only contend when they share a physical page); lines with no
   discovered class get singleton negative keys and thus never contend. *)
type kind =
  | Contention of { sets : Contention.t; members : int list array }
      (* members.(cls) = page offsets of the class, ascending *)
  | Oracle of { slice_of : int -> int }
  | Baseline

type t = {
  kind : kind;
  geom : Geometry.t;
  alpha : int;
  resident : int list Imap.t;  (* class key -> resident lines, MRU first *)
  cached : Iset.t;  (* union of resident lines *)
  touched : Iset.t;  (* every line ever accessed (grows monotonically) *)
}

type outcome = {
  addr : int;
  miss : bool;
  latency : int;
  added : Ir.Expr.sexpr option;
}

let contention geom sets =
  let members = Array.make (max sets.Contention.n_classes 1) [] in
  List.iter
    (fun (cls, offsets) -> members.(cls) <- offsets)
    (Contention.classes sets);
  {
    kind = Contention { sets; members };
    geom;
    alpha = Geometry.l3_assoc geom;
    resident = Imap.empty;
    cached = Iset.empty;
    touched = Iset.empty;
  }

let oracle geom ~slice_of =
  {
    kind = Oracle { slice_of };
    geom;
    alpha = Geometry.l3_assoc geom;
    resident = Imap.empty;
    cached = Iset.empty;
    touched = Iset.empty;
  }

let baseline geom =
  {
    kind = Baseline;
    geom;
    alpha = Geometry.l3_assoc geom;
    resident = Imap.empty;
    cached = Iset.empty;
    touched = Iset.empty;
  }

let line_of t vaddr = vaddr / t.geom.Geometry.line

let class_key t line =
  let vaddr = line * t.geom.Geometry.line in
  match t.kind with
  | Contention { sets; _ } -> (
      match Contention.class_of_vaddr sets vaddr with
      | Some cls -> ((vaddr lsr Vmem.page_bits) * sets.Contention.n_classes) + cls
      | None -> -line - 1)
  | Oracle { slice_of } ->
      let set = line mod Geometry.l3_sets_per_slice t.geom in
      (slice_of vaddr * Geometry.l3_sets_per_slice t.geom) + set
  | Baseline -> -line - 1

let residents t key =
  match Imap.find_opt key t.resident with Some l -> l | None -> []

(* Bring [line] in: MRU-promote on hit, insert + evict beyond α on miss. *)
let touch t line =
  let key = class_key t line in
  let lines = residents t key in
  if List.mem line lines then
    let lines = line :: List.filter (fun l -> l <> line) lines in
    ({ t with resident = Imap.add key lines t.resident;
       touched = Iset.add line t.touched }, false)
  else
    let lines = line :: lines in
    let lines, evicted =
      if List.length lines > t.alpha then
        let rec split acc = function
          | [] -> (List.rev acc, None)
          | [ last ] -> (List.rev acc, Some last)
          | x :: rest -> split (x :: acc) rest
        in
        split [] lines
      else (lines, None)
    in
    let cached = Iset.add line t.cached in
    let cached =
      match evicted with Some e -> Iset.remove e cached | None -> cached
    in
    ({ t with resident = Imap.add key lines t.resident; cached;
       touched = Iset.add line t.touched }, true)

(* Telemetry: the model's own hit/miss balance (the adversarial-search side,
   not the measurement testbed) plus how symbolic pointers were pinned. *)
let m_hit = Obs.Metrics.counter "cache.model.hit"
let m_miss = Obs.Metrics.counter "cache.model.miss"
let m_concretized = Obs.Metrics.counter "cache.model.concretizations"
let m_fallback = Obs.Metrics.counter "cache.model.concretization_fallbacks"

let access_concrete t vaddr =
  let line = line_of t vaddr in
  let t', miss = touch t line in
  Obs.Metrics.incr (if miss then m_miss else m_hit);
  let latency =
    if miss then t.geom.Geometry.lat_dram else t.geom.Geometry.lat_l3
  in
  (t', { addr = vaddr; miss; latency; added = None })

(* ------------------------------------------------------------------ *)
(* Symbolic pointers: candidate generation and scoring                 *)
(* ------------------------------------------------------------------ *)

(* The first domain value landing inside the given line, if any. *)
let value_in_line dom line_base line_size =
  let d : Solver.Domain.t = dom in
  if d.hi < line_base || d.lo >= line_base + line_size then None
  else
    let v =
      if d.lo >= line_base then d.lo
      else d.lo + ((line_base - d.lo + d.step - 1) / d.step * d.step)
    in
    if v < line_base + line_size && v <= d.hi then Some v else None

(* Candidate concrete values for a symbolic pointer, worst first.  Each
   candidate is (value, score); higher scores promise more cache damage:
   a base bonus for lines whose contention set is known at all (only those
   can be pushed past associativity), +2 per resident line already in the
   class (saturating at α, where one more access guarantees an eviction),
   +1 for lines not yet cached. *)
let candidates t dom ~limit =
  let line_size = t.geom.Geometry.line in
  let class_score key =
    let known = match t.kind with
      | Contention _ -> key >= 0
      | Oracle _ -> true
      | Baseline -> false
    in
    let n = List.length (residents t key) in
    (if known then 4 else 0) + (2 * min n t.alpha)
  in
  (* Fresh lines (never accessed) grow the contention group; evicted lines
     would re-miss too but shrink the distinct working set the emitted
     workload cycles over. *)
  let score line =
    class_score (class_key t line)
    + (if Iset.mem line t.cached then 0 else 1)
    + if Iset.mem line t.touched then 0 else 1
  in
  let out = ref [] in
  let count = ref 0 in
  let consider v =
    if !count < limit then begin
      out := (v, score (v / line_size)) :: !out;
      incr count
    end
  in
  (match t.kind with
  | Contention { sets; members } ->
      (* Enumerate lines from discovered classes, most-loaded classes first,
         then fall back to a spread sample of the domain. *)
      let d : Solver.Domain.t = dom in
      let page_lo = d.lo lsr Vmem.page_bits
      and page_hi = d.hi lsr Vmem.page_bits in
      let by_load =
        List.init sets.Contention.n_classes (fun c -> c)
        |> List.map (fun c ->
               let load =
                 (* heaviest page instance of this class *)
                 let rec best p acc =
                   if p > page_hi then acc
                   else
                     let key = (p * sets.Contention.n_classes) + c in
                     best (p + 1) (max acc (List.length (residents t key)))
                 in
                 best page_lo 0
               in
               (c, load))
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      List.iter
        (fun (cls, _) ->
          for page = page_lo to min page_hi (page_lo + 3) do
            List.iter
              (fun off ->
                match
                  value_in_line dom ((page lsl Vmem.page_bits) + off) line_size
                with
                | Some v -> consider v
                | None -> ())
              members.(cls)
          done)
        by_load
  | Oracle { slice_of } ->
      (* Enumerate lines sharing the set index of the most loaded class, a
         set stride apart, keeping only those the hidden hash maps to the
         same slice — what a perfect reverse-engineering permits. *)
      let d : Solver.Domain.t = dom in
      let sets_per_slice = Geometry.l3_sets_per_slice t.geom in
      let target =
        (* most-loaded class, if any; otherwise the class of the domain
           floor so accesses concentrate deterministically *)
        match
          Imap.fold
            (fun key lines best ->
              match best with
              | Some (_, n) when n >= List.length lines -> best
              | _ -> Some (key, List.length lines))
            t.resident None
        with
        | Some (key, _) -> key
        | None -> class_key t (d.lo / line_size)
      in
      let slice = target / sets_per_slice and set = target mod sets_per_slice in
      let first_line = d.lo / line_size in
      let base_line = first_line + ((set - (first_line mod sets_per_slice) + sets_per_slice) mod sets_per_slice) in
      let k = ref 0 in
      while !count < limit && base_line + (!k * sets_per_slice) <= d.hi / line_size do
        let line = base_line + (!k * sets_per_slice) in
        if slice_of (line * line_size) = slice then begin
          match value_in_line dom (line * line_size) line_size with
          | Some v -> consider v
          | None -> ()
        end;
        incr k
      done
  | Baseline -> ());
  (* Spread sample across the domain so there are always candidates. *)
  let d : Solver.Domain.t = dom in
  let card = Solver.Domain.cardinal d in
  let samples = 64 in
  let stride_steps = max 1 (card / samples) in
  let k = ref 0 in
  let taken = ref 0 in
  while !k < card && !taken < samples do
    let v = d.lo + (!k * d.step) in
    out := (v, score (v / line_size)) :: !out;
    incr taken;
    k := !k + stride_steps
  done;
  (* Stable sort, best score first; deterministic tie-break on value. *)
  List.sort
    (fun (v1, s1) (v2, s2) ->
      if s1 <> s2 then compare s2 s1 else compare v1 v2)
    !out

let access_symbolic t ~pc expr =
  match Solver.Simplify.expr expr with
  | Ir.Expr.Const v ->
      let t', o = access_concrete t v in
      (t', { o with added = None })
  | e ->
      Obs.Metrics.incr m_concretized;
      let dom = Solver.Pc.domain_of pc e in
      let cands = candidates t dom ~limit:96 in
      let rec first_compatible tried = function
        | [] -> None
        | (v, _) :: rest ->
            if tried > 24 then None
            else
              let c = Ir.Expr.Cmp (Eq, e, Const v) in
              if Solver.Pc.feasible pc ~query:c then Some (v, c)
              else first_compatible (tried + 1) rest
      in
      let v, added =
        match first_compatible 0 cands with
        | Some (v, c) -> (v, Some c)
        | None -> (
            (* No scored candidate fits; fall back to whatever a satisfying
               model of the path constraint makes the pointer evaluate to —
               compatible by construction. *)
            Obs.Metrics.incr m_fallback;
            match Solver.Pc.sat pc with
            | Sat m ->
                let v = Solver.Solve.Model.eval m e in
                (v, Some (Ir.Expr.Cmp (Eq, e, Const v)))
            | Unsat | Unknown ->
                let v = (dom : Solver.Domain.t).lo in
                (v, Some (Ir.Expr.Cmp (Eq, e, Const v))))
      in
      let t', o = access_concrete t v in
      (t', { o with added })
