open Ir.Dsl

let flag = 1 lsl 31

let make () =
  let routes = Config.routes32 in
  (* /24 prefixes that contain routes longer than 24 bits get a second-stage
     group each. *)
  let deep_prefixes =
    List.filter_map
      (fun (r : Config.route) ->
        if r.len > 24 then Some (r.prefix lsr 8) else None)
      routes
    |> List.sort_uniq compare
  in
  let group_of_p24 = Hashtbl.create 16 in
  List.iteri (fun g p24 -> Hashtbl.replace group_of_p24 p24 g) deep_prefixes;
  let p24_of_group = Array.of_list deep_prefixes in
  let n_groups = max 1 (Array.length p24_of_group) in
  (* Routes of length <= 24, for first-stage defaults. *)
  let shallow = List.filter (fun (r : Config.route) -> r.len <= 24) routes in
  let stage1 =
    Ir.Memory.array_spec ~name:"lpm24" ~elem_width:4 ~count:(1 lsl 24)
      ~init:(fun idx ->
        match Hashtbl.find_opt group_of_p24 idx with
        | Some g -> flag lor g
        | None -> Config.lpm_lookup shallow (idx lsl 8))
      ()
  in
  let stage2 =
    Ir.Memory.array_spec ~name:"lpm8" ~elem_width:4 ~count:(n_groups * 256)
      ~init:(fun idx ->
        let g = idx / 256 and off = idx land 0xFF in
        Config.lpm_lookup routes ((p24_of_group.(g) lsl 8) lor off))
      ()
  in
  let regions = [ stage1; stage2 ] in
  let b1 = Nf_def.region_base regions "lpm24" in
  let b2 = Nf_def.region_base regions "lpm8" in
  let prog =
    program ~name:"lpm-2stage-dl" ~entry:"process" ~regions
      [
        Parse.fdef;
        func "process" Parse.params
          [
            call "csum" Parse.name Parse.call_args;
            "idx" <-- (v "dst_ip" >>: i 8);
            load4 "e" (i b1 +: (v "idx" *: i 4));
            if_
              ((v "e" >>: i 31) &: i 1)
              [
                "g" <-- (v "e" &: i 0xFFFF);
                load4 "nh"
                  (i b2
                  +: (((v "g" *: i 256) +: (v "dst_ip" &: i 0xFF)) *: i 4));
                ret (v "nh");
              ]
              [ ret (v "e") ];
          ];
      ]
  in
  {
    Nf_def.name = "lpm-2stage-dl";
    descr = "LPM, two-stage direct lookup (DPDK-style 64MB + groups)";
    program = Ir.Lower.program prog;
    keyspaces = [];
    shape = Fun.id;
    manual = None;
    castan_packets = 40;
  }
