open Ir.Dsl

let make () =
  let prog =
    program ~name:"nop" ~entry:"process" ~regions:[]
      [ func "process" Parse.params [ ret (i 1) ] ]
  in
  {
    Nf_def.name = "nop";
    descr = "forwards packets without any processing";
    program = Ir.Lower.program prog;
    keyspaces = [];
    shape = Fun.id;
    manual = None;
    castan_packets = 1;
  }
