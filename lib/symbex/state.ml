module Smap = Map.Make (String)

type metrics = {
  instrs : int;
  loads : int;
  stores : int;
  l3_misses : int;
  cycles : int;
}

let zero_metrics = { instrs = 0; loads = 0; stores = 0; l3_misses = 0; cycles = 0 }

let pp_metrics ppf m =
  Format.fprintf ppf "instrs=%d loads=%d stores=%d l3miss=%d cycles=%d"
    m.instrs m.loads m.stores m.l3_misses m.cycles

type frame = {
  func : Ir.Cfg.func;
  pc : int;
  env : Ir.Expr.sexpr Smap.t;
  ret_to : string option;
}

type t = {
  program : Ir.Cfg.t;
  frame : frame;
  stack : frame list;
  mem : Ir.Expr.sexpr Ir.Memory.t;
  pcs : Solver.Pc.t;
  cache : Cache.Model.t;
  pkt : int;
  n_packets : int;
  finished : bool;
  done_metrics : metrics list;
  cur : metrics;
  havocs : (int * string * Ir.Expr.sexpr * Ir.Expr.sym) list;
  steps : int;
  id : int;
}

(* Domain-local so concurrent analyses on pool workers allocate independent
   dense sequences; [reset_ids] (called per analysis) makes the ids a pure
   function of the NF being explored. *)
let next_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_id := 0

let fresh_id () =
  let r = Domain.DLS.get next_id in
  incr r;
  !r

let packet_sym pkt field : Ir.Expr.sexpr = Leaf (Ir.Expr.Pkt { pkt; field })

let entry_frame program pkt =
  let f = Ir.Cfg.entry_func program in
  let env =
    List.fold_left
      (fun env param ->
        Smap.add param (packet_sym pkt (Ir.Expr.field_of_name param)) env)
      Smap.empty f.params
  in
  { func = f; pc = 0; env; ret_to = None }

let initial program ~cache ~n_packets ~mem =
  {
    program;
    frame = entry_frame program 0;
    stack = [];
    mem;
    pcs = Solver.Pc.empty;
    cache;
    pkt = 0;
    n_packets;
    finished = false;
    done_metrics = [];
    cur = zero_metrics;
    havocs = [];
    steps = 0;
    id = fresh_id ();
  }

let add_pc t c =
  let pcs = Solver.Pc.add t.pcs c in
  if pcs == t.pcs then t else { t with pcs }

let start_packet t =
  let done_metrics = t.cur :: t.done_metrics in
  if t.pkt + 1 >= t.n_packets then
    { t with done_metrics; cur = zero_metrics; finished = true; steps = 0 }
  else
    {
      t with
      frame = entry_frame t.program (t.pkt + 1);
      stack = [];
      pkt = t.pkt + 1;
      done_metrics;
      cur = zero_metrics;
      steps = 0;
      id = t.id;
    }

let current_cost t =
  List.fold_left (fun acc m -> acc + m.cycles) t.cur.cycles t.done_metrics

let potential t annot =
  if t.finished then 0
  else
    let here =
      Cost.to_return annot ~func:t.frame.func.Ir.Cfg.fname ~pc:t.frame.pc
    in
    let stack =
      List.fold_left
        (fun acc fr ->
          acc + Cost.to_return annot ~func:fr.func.Ir.Cfg.fname ~pc:fr.pc)
        0 t.stack
    in
    let remaining_packets = t.n_packets - t.pkt - 1 in
    here + stack
    + (remaining_packets * Cost.full_cost annot t.program.Ir.Cfg.entry)

let priority t annot = current_cost t + potential t annot

let all_metrics t =
  let completed = List.rev t.done_metrics in
  if t.finished then completed else completed @ [ t.cur ]
