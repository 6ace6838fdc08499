open Ir.Dsl

(* Concrete trie construction at NF-build time (the NF's control plane). *)
type tnode = {
  id : int;
  mutable nh : int;
  mutable left : tnode option;
  mutable right : tnode option;
}

(* Atomic: NF builds can run concurrently on pool workers.  Ids are only
   used as Hashtbl keys inside [flatten] (addresses come from preorder
   position), so they need to be unique, not sequential. *)
let node_counter = Atomic.make 0

let new_node () =
  { id = Atomic.fetch_and_add node_counter 1; nh = 0; left = None; right = None }

let insert root (r : Config.route) =
  let rec go node depth =
    if depth = r.len then node.nh <- r.next_hop
    else
      let bit = (r.prefix lsr (31 - depth)) land 1 in
      let child =
        match if bit = 0 then node.left else node.right with
        | Some c -> c
        | None ->
            let c = new_node () in
            if bit = 0 then node.left <- Some c else node.right <- Some c;
            c
      in
      go child (depth + 1)
  in
  go root 0

(* Flatten to arrays of (nh, left addr, right addr) triples, 24 bytes per
   node, root first. *)
let flatten root ~base =
  let rec collect node acc =
    let acc = node :: acc in
    let acc = match node.left with Some c -> collect c acc | None -> acc in
    match node.right with Some c -> collect c acc | None -> acc
  in
  let ordered = List.rev (collect root []) in
  let index = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace index n.id i) ordered;
  let addr_of = function
    | None -> 0
    | Some c -> base + (Hashtbl.find index c.id * 24)
  in
  let slots = Array.make (List.length ordered * 3) 0 in
  List.iteri
    (fun i n ->
      slots.((i * 3) + 0) <- n.nh;
      slots.((i * 3) + 1) <- addr_of n.left;
      slots.((i * 3) + 2) <- addr_of n.right)
    ordered;
  slots

let make () =
  let root = new_node () in
  List.iter (insert root) Config.routes32;
  (* The region's base is determined by layout; since this is the only/first
     region it equals the layout origin regardless of node count. *)
  let probe_region =
    Ir.Memory.array_spec ~name:"trie" ~elem_width:8 ~count:3 ()
  in
  let base = Nf_def.region_base [ probe_region ] "trie" in
  let slots = flatten root ~base in
  let region =
    Ir.Memory.array_spec ~name:"trie" ~elem_width:8 ~count:(Array.length slots)
      ~init:(fun idx -> slots.(idx))
      ()
  in
  let regions = [ region ] in
  let prog =
    program ~name:"lpm-btrie" ~entry:"process" ~regions
      [
        Parse.fdef;
        func "process" Parse.params
          [
            call "csum" Parse.name Parse.call_args;
            "node" <-- i base;
            "best" <-- i 0;
            "depth" <-- i 31;
            while_
              (v "node" <>: i 0)
              [
                load8 "nh" (v "node");
                when_ (v "nh" <>: i 0) [ "best" <-- v "nh" ];
                "bit" <-- ((v "dst_ip" >>: v "depth") &: i 1);
                load8 "next" (v "node" +: i 8 +: (v "bit" *: i 8));
                "node" <-- v "next";
                "depth" <-- v "depth" -: i 1;
              ];
            ret (v "best");
          ];
      ]
  in
  (* Manual workload: the /32 routes, then end-bit variants. *)
  let deepest =
    List.filter_map
      (fun (r : Config.route) -> if r.len = 32 then Some r.prefix else None)
      Config.routes32
  in
  let manual _rng n =
    List.init n (fun k ->
        let m = List.length deepest in
        let ip = List.nth deepest (k mod m) in
        let variant = k / m in
        (* Flip low bits: stays on (almost) the longest trie path. *)
        Packet.make ~dst_ip:(ip lxor variant) ~src_port:(5000 + k) ())
  in
  {
    Nf_def.name = "lpm-btrie";
    descr = "LPM, binary (Patricia) trie over 32-bit prefixes";
    program = Ir.Lower.program prog;
    keyspaces = [];
    shape = Fun.id;
    manual = Some manual;
    castan_packets = 30;
  }
