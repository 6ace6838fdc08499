let builders : (string * (unit -> Nf_def.t)) list =
  [
    ("lb-hash-table", fun () -> Lb.make (Flowtable_chain.make ()));
    ("lb-hash-ring", fun () -> Lb.make (Flowtable_ring.make ()));
    ("lb-red-black-tree", fun () -> Lb.make (Flowtable_rb.make ()));
    ("lb-unbalanced-tree", fun () -> Lb.make (Flowtable_bst.make ()));
    ("lpm-btrie", Lpm_trie.make);
    ("lpm-1stage-dl", Lpm_direct.make);
    ("lpm-2stage-dl", Lpm_dpdk.make);
    ("nat-hash-table", fun () -> Nat.make (Flowtable_chain.make ()));
    ("nat-hash-ring", fun () -> Nat.make (Flowtable_ring.make ()));
    ("nat-red-black-tree", fun () -> Nat.make (Flowtable_rb.make ()));
    ("nat-unbalanced-tree", fun () -> Nat.make (Flowtable_bst.make ()));
    ("nop", Nop.make);
  ]

let names = List.map fst builders

let nop = Nop.make

let find name =
  match List.assoc_opt name builders with
  | Some b -> b ()
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find: unknown NF %s (known: %s)" name
           (String.concat ", " names))
