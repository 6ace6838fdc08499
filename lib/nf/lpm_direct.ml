open Ir.Dsl

let make () =
  let table =
    Ir.Memory.array_spec ~name:"dl_table" ~elem_width:8 ~count:(1 lsl 27)
      ~init:(fun idx -> Config.lpm_lookup Config.routes27 (idx lsl 5))
      ()
  in
  let regions = [ table ] in
  let base = Nf_def.region_base regions "dl_table" in
  let prog =
    program ~name:"lpm-1stage-dl" ~entry:"process" ~regions
      [
        Parse.fdef;
        func "process" Parse.params
          [
            call "csum" Parse.name Parse.call_args;
            "idx" <-- (v "dst_ip" >>: i 5);
            load8 "nh" (i base +: (v "idx" *: i 8));
            ret (v "nh");
          ];
      ]
  in
  {
    Nf_def.name = "lpm-1stage-dl";
    descr = "LPM, one-stage direct lookup (1GB flat /27 table)";
    program = Ir.Lower.program prog;
    keyspaces = [];
    shape = Fun.id;
    manual = None;
    castan_packets = 40;
  }
