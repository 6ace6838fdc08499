open Ir.Dsl

(* Heap node layout: [key; value; next], 8 bytes each. *)

let make () =
  let buckets =
    Ir.Memory.array_spec ~name:"ht_buckets" ~elem_width:8
      ~count:Config.chain_buckets ()
  in
  let regions = [ buckets ] in
  let base = Nf_def.region_base regions "ht_buckets" in
  let bucket_addr = i base +: ((v "h" &: i (Config.chain_buckets - 1)) *: i 8) in
  let functions =
    [
      func Flowtable.lookup_name [ "key"; "h" ]
        [
          load8 "node" bucket_addr;
          while_
            (v "node" <>: i 0)
            [
              load8 "k" (v "node");
              if_ (v "k" =: v "key")
                [ load8 "val" (v "node" +: i 8); ret (v "val") ]
                [];
              load8 "node" (v "node" +: i 16);
            ];
          ret (i 0);
        ];
      func Flowtable.insert_name [ "key"; "h"; "value" ]
        [
          load8 "head" bucket_addr;
          alloc "n" 24;
          store8 (v "n") (v "key");
          store8 (v "n" +: i 8) (v "value");
          store8 (v "n" +: i 16) (v "head");
          store8 bucket_addr (v "n");
          ret_none;
        ];
    ]
  in
  {
    Flowtable.ft_name = "hash-table";
    regions;
    heap_bytes = 256 * 1024 * 1024;
    functions;
    hash = Some Ir.Hashes.flow16;
    manual_skew = false;
  }
