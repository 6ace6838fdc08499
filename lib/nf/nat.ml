open Ir.Dsl

let make (ft : Flowtable.t) =
  let port_region =
    Ir.Memory.array_spec ~name:"nat_next_port" ~elem_width:8 ~count:1 ()
  in
  let regions = ft.Flowtable.regions @ [ port_region ] in
  let port_ctr = i (Nf_def.region_base regions "nat_next_port") in
  let name = "nat-" ^ ft.Flowtable.ft_name in
  let process =
    func "process" Parse.params
      ([
         call "csum" Parse.name Parse.call_args;
         Flownf.proto_guard;
         "fwd_key" <-- Flownf.fwd_key_expr;
       ]
      @ Flownf.hash_stmts ft ~dst:"h" ~key:(v "fwd_key")
      @ [
          call "val" Flowtable.lookup_name [ v "fwd_key"; v "h" ];
          if_
            (v "val" =: i 0)
            ([
               (* allocate an external port for the new flow *)
               load8 "p" port_ctr;
               store8 port_ctr (v "p" +: i 1);
               "ext_port" <-- (v "p" &: i 0x3FFF) +: i 1024;
               call_ Flowtable.insert_name
                 [ v "fwd_key"; v "h"; v "ext_port" ];
               "ret_key" <-- Flownf.ret_key_expr;
             ]
            @ Flownf.hash_stmts ft ~dst:"h2" ~key:(v "ret_key")
            @ [
                call_ Flowtable.insert_name
                  [ v "ret_key"; v "h2"; v "ext_port" ];
                "val" <-- v "ext_port";
              ])
            [];
          (* header rewrite: source becomes the NAT's address/port *)
          "out" <-- ((v "val" <<: i 8) |: (v "csum" &: i 0xFF));
          ret (v "out");
        ])
  in
  let manual =
    if ft.Flowtable.manual_skew then
      Some
        (fun _rng n ->
          (* Sorted-key insertion degenerates the unbalanced tree into a
             list: same endpoints, monotonically increasing source port. *)
          List.init n (fun k -> Packet.make ~src_port:(1024 + k) ()))
    else None
  in
  let prog =
    program ~name ~entry:"process" ~regions
      ~heap_bytes:ft.Flowtable.heap_bytes
      ([ Parse.fdef; process ] @ ft.Flowtable.functions)
  in
  {
    Nf_def.name;
    descr = "source NAT over " ^ ft.Flowtable.ft_name;
    program = Ir.Lower.program prog;
    keyspaces = Flownf.keyspaces ft ~with_ret_keys:true;
    shape = Fun.id;
    manual;
    castan_packets =
      (match ft.Flowtable.ft_name with
      | "hash-table" -> 30
      | "hash-ring" -> 40
      | "red-black-tree" -> 35
      | _ -> 50);
  }
