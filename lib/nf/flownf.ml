open Ir.Dsl

let fwd_key_expr = (v "src_ip" <<: i 16) |: v "src_port"

let ret_key_tag = 1 lsl 49

let ret_key_expr = i ret_key_tag |: (v "dst_ip" <<: i 16) |: v "dst_port"

let hash_stmts (ft : Flowtable.t) ~dst ~key =
  match ft.hash with
  | Some h -> [ havoc dst ~input:key ~hash:h.Ir.Hashes.name ]
  | None -> [ dst <-- i 0 ]

(* Forward keys: (x << 16) | port with x drawn from an address band and
   ports above 1024 — values that satisfy the NFs' packet constraints (the
   tailored-table idea of §3.5). *)
let fwd_key_of_index idx =
  let x = 0x0A000000 + (idx lsr 12) in
  let port = 1024 + (idx land 0xFFF) in
  (x lsl 16) lor port

let ret_key_of_index idx =
  let dst = 0xC0A80000 + (idx lsr 12) in
  let port = 1024 + (idx land 0xFFF) in
  ret_key_tag lor (dst lsl 16) lor port

let keyspaces (ft : Flowtable.t) ~with_ret_keys =
  match ft.hash with
  | None -> []
  | Some h ->
      (* ~2^|hash value| entries so every value has a few preimages — and
         enough distinct preimages per value to give each packet of a
         colliding workload its own flow.  The 24-bit ring hash needs a
         key space larger than its output space (the paper: "a few millions
         of entries"). *)
      let count = if h.Ir.Hashes.bits > 16 then 1 lsl 25 else 1 lsl 22 in
      let ks =
        if with_ret_keys then
          Hashrev.Rainbow.keyspace
            ~name:(h.Ir.Hashes.name ^ "-nat")
            ~count
            ~key_of_index:(fun idx ->
              if idx land 1 = 0 then fwd_key_of_index (idx lsr 1)
              else ret_key_of_index (idx lsr 1))
        else
          Hashrev.Rainbow.keyspace
            ~name:(h.Ir.Hashes.name ^ "-fwd")
            ~count ~key_of_index:fwd_key_of_index
      in
      [ (h.Ir.Hashes.name, ks) ]

let proto_guard =
  if_
    ((v "proto" =: i Packet.tcp) |: (v "proto" =: i Packet.udp))
    []
    [ ret (i 0) ]
