type level = L1 | L2 | L3 | Dram

type stats = {
  mutable cycles : int;
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable l1 : int;
  mutable l2 : int;
  mutable l3 : int;
  mutable dram : int;
}

let zero () =
  { cycles = 0; instrs = 0; loads = 0; stores = 0;
    l1 = 0; l2 = 0; l3 = 0; dram = 0 }

let on = ref false
let set_enabled b = on := b

(* The profiler's tables are not domain-safe, and no profiled code runs on
   a pool worker, so recording happens on the main domain only. *)
let enabled () = !on && Domain.is_main_domain ()

let tbl : (string * int, stats) Hashtbl.t = Hashtbl.create 256
let timer_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 8

(* The ambient attribution site.  Starts detached (a throwaway record not
   in [tbl]): anything recorded before the first [enter] stays out of
   [sites] rather than polluting a catch-all bucket. *)
let cur = ref (zero ())

let reset () =
  Hashtbl.reset tbl;
  Hashtbl.reset timer_tbl;
  cur := zero ()

let enter ~func ~pc =
  if enabled () then begin
    let key = (func, pc) in
    cur :=
      match Hashtbl.find_opt tbl key with
      | Some s -> s
      | None ->
          let s = zero () in
          Hashtbl.add tbl key s;
          s
  end

(* 3/5 of a cycle per retired weight unit, the CPI of
   [Cache.Geometry.op_cycles]; rounded to nearest so weight-1 instructions
   attribute 1 cycle instead of flooring to 0. *)
let retire_cycles weight = ((weight * 3) + 2) / 5

let add_retire ~weight =
  if enabled () then begin
    let s = !cur in
    s.instrs <- s.instrs + weight;
    s.cycles <- s.cycles + retire_cycles weight
  end

let add_exec ~instrs ~cycles =
  if enabled () then begin
    let s = !cur in
    s.instrs <- s.instrs + instrs;
    s.cycles <- s.cycles + cycles
  end

let add_access ~write level ~cycles =
  if enabled () then begin
    let s = !cur in
    if write then s.stores <- s.stores + 1 else s.loads <- s.loads + 1;
    (match level with
    | L1 -> s.l1 <- s.l1 + 1
    | L2 -> s.l2 <- s.l2 + 1
    | L3 -> s.l3 <- s.l3 + 1
    | Dram -> s.dram <- s.dram + 1);
    s.cycles <- s.cycles + cycles
  end

let add_timer name dt =
  if enabled () then
    match Hashtbl.find_opt timer_tbl name with
    | Some r -> r := !r +. dt
    | None -> Hashtbl.add timer_tbl name (ref dt)

let sites () =
  (* [{ v with ... }] copies, so reports may aggregate into the result. *)
  Hashtbl.fold (fun k v acc -> (k, { v with cycles = v.cycles }) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let timers () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) timer_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_cycles () =
  Hashtbl.fold (fun _ s acc -> acc + s.cycles) tbl 0
