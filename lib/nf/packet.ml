type t = {
  src_ip : int;
  dst_ip : int;
  proto : int;
  src_port : int;
  dst_port : int;
}

let tcp = 6
let udp = 17

let make ?(src_ip = 0x0A000001) ?(dst_ip = 0xC0A80101) ?(proto = udp)
    ?(src_port = 1000) ?(dst_port = 80) () =
  { src_ip; dst_ip; proto; src_port; dst_port }

let field p = function
  | Ir.Expr.Src_ip -> p.src_ip
  | Ir.Expr.Dst_ip -> p.dst_ip
  | Ir.Expr.Proto -> p.proto
  | Ir.Expr.Src_port -> p.src_port
  | Ir.Expr.Dst_port -> p.dst_port

let with_field p f v =
  match f with
  | Ir.Expr.Src_ip -> { p with src_ip = v }
  | Ir.Expr.Dst_ip -> { p with dst_ip = v }
  | Ir.Expr.Proto -> { p with proto = v }
  | Ir.Expr.Src_port -> { p with src_port = v }
  | Ir.Expr.Dst_port -> { p with dst_port = v }

let args_for (f : Ir.Cfg.func) p =
  List.map (fun param -> field p (Ir.Expr.field_of_name param)) f.params

(* Resolve the parameter-name -> field mapping once; the replay hot path
   then fills a caller-owned buffer with no per-packet name lookups or list
   allocation. *)
let fields_for (f : Ir.Cfg.func) =
  Array.of_list (List.map Ir.Expr.field_of_name f.params)

let fill_args fields p argv =
  for i = 0 to Array.length fields - 1 do
    argv.(i) <- field p (Array.unsafe_get fields i)
  done

let of_model m ~n =
  List.init n (fun pkt ->
      let get f = Solver.Solve.Model.get m (Ir.Expr.Pkt { pkt; field = f }) in
      let p =
        {
          src_ip = get Src_ip;
          dst_ip = get Dst_ip;
          proto = get Proto;
          src_port = get Src_port;
          dst_port = get Dst_port;
        }
      in
      (* A path that never inspected the protocol leaves it 0; emit a real
         protocol so the frame is well-formed on the wire. *)
      if p.proto = 0 then { p with proto = udp } else p)

(* A well-mixed 61-bit digest of the 5-tuple; used only to count distinct
   flows in workloads (collisions are birthday-negligible at that scale). *)
let flow_key p =
  let m = (1 lsl 61) - 1 in
  let mix acc v =
    let x = (acc lxor v) * 0x9E3779B97F4A7C1 land m in
    x lxor (x lsr 29)
  in
  List.fold_left mix 0x1234567
    [ p.src_ip; p.dst_ip; p.proto; p.src_port; p.dst_port ]

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xFF) ((ip lsr 16) land 0xFF)
    ((ip lsr 8) land 0xFF) (ip land 0xFF)

let pp ppf p =
  Format.fprintf ppf "%s:%d > %s:%d %s" (ip_to_string p.src_ip) p.src_port
    (ip_to_string p.dst_ip) p.dst_port
    (if p.proto = tcp then "tcp" else if p.proto = udp then "udp"
     else string_of_int p.proto)

let to_string p = Format.asprintf "%a" pp p
