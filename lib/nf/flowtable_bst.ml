open Ir.Dsl

(* Node layout: [key; value; left; right], 8 bytes each. *)

let make () =
  let root_region =
    Ir.Memory.array_spec ~name:"bst_root" ~elem_width:8 ~count:1 ()
  in
  let regions = [ root_region ] in
  let root = i (Nf_def.region_base regions "bst_root") in
  let functions =
    [
      func Flowtable.lookup_name [ "key"; "h" ]
        [
          load8 "node" root;
          while_
            (v "node" <>: i 0)
            [
              load8 "k" (v "node");
              if_ (v "key" =: v "k")
                [ load8 "val" (v "node" +: i 8); ret (v "val") ]
                [];
              if_ (v "key" <: v "k")
                [ load8 "node" (v "node" +: i 16) ]
                [ load8 "node" (v "node" +: i 24) ];
            ];
          ret (i 0);
        ];
      func Flowtable.insert_name [ "key"; "h"; "value" ]
        [
          alloc "n" 32;
          store8 (v "n") (v "key");
          store8 (v "n" +: i 8) (v "value");
          store8 (v "n" +: i 16) (i 0);
          store8 (v "n" +: i 24) (i 0);
          load8 "cur" root;
          if_ (v "cur" =: i 0) [ store8 root (v "n"); ret_none ] [];
          while_ (i 1)
            [
              load8 "k" (v "cur");
              if_ (v "key" <: v "k")
                [
                  load8 "nxt" (v "cur" +: i 16);
                  if_ (v "nxt" =: i 0)
                    [ store8 (v "cur" +: i 16) (v "n"); ret_none ]
                    [ "cur" <-- v "nxt" ];
                ]
                [
                  load8 "nxt" (v "cur" +: i 24);
                  if_ (v "nxt" =: i 0)
                    [ store8 (v "cur" +: i 24) (v "n"); ret_none ]
                    [ "cur" <-- v "nxt" ];
                ];
            ];
          ret_none;
        ];
    ]
  in
  {
    Flowtable.ft_name = "unbalanced-tree";
    regions;
    heap_bytes = 256 * 1024 * 1024;
    functions;
    hash = None;
    manual_skew = true;
  }
