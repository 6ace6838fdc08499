open Ir.Dsl

let make (ft : Flowtable.t) =
  let rr_region =
    Ir.Memory.array_spec ~name:"lb_rr" ~elem_width:8 ~count:1 ()
  in
  let regions = ft.Flowtable.regions @ [ rr_region ] in
  let rr = i (Nf_def.region_base regions "lb_rr") in
  let name = "lb-" ^ ft.Flowtable.ft_name in
  let process =
    func "process" Parse.params
      ([
         call "csum" Parse.name Parse.call_args;
         (* non-VIP traffic is statically routed: no data-structure access *)
         if_ (v "dst_ip" <>: i Config.vip) [ ret (i 1) ] [];
         Flownf.proto_guard;
         "key" <-- ((v "src_ip" <<: i 16) |: v "src_port");
       ]
      @ Flownf.hash_stmts ft ~dst:"h" ~key:(v "key")
      @ [
          call "backend" Flowtable.lookup_name [ v "key"; v "h" ];
          if_
            (v "backend" =: i 0)
            [
              load8 "c" rr;
              store8 rr (v "c" +: i 1);
              "backend" <-- (v "c" %: i Config.n_backends) +: i 1;
              call_ Flowtable.insert_name [ v "key"; v "h"; v "backend" ];
            ]
            [];
          ret (v "backend");
        ])
  in
  let manual =
    if ft.Flowtable.manual_skew then
      Some
        (fun _rng n ->
          List.init n (fun k ->
              Packet.make ~dst_ip:Config.vip ~src_port:(1024 + k) ()))
    else None
  in
  let prog =
    program ~name ~entry:"process" ~regions
      ~heap_bytes:ft.Flowtable.heap_bytes
      ([ Parse.fdef; process ] @ ft.Flowtable.functions)
  in
  {
    Nf_def.name;
    descr = "L4 load balancer over " ^ ft.Flowtable.ft_name;
    program = Ir.Lower.program prog;
    keyspaces = Flownf.keyspaces ft ~with_ret_keys:false;
    shape = (fun p -> { p with Packet.dst_ip = Config.vip });
    manual;
    castan_packets =
      (match ft.Flowtable.ft_name with "hash-ring" -> 40 | _ -> 30);
  }
