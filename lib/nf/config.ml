type route = { prefix : int; len : int; next_hop : int }

let mask_of_len len = if len = 0 then 0 else -1 lsl (32 - len) land 0xFFFFFFFF

let route_matches r ip = ip land mask_of_len r.len = r.prefix

(* 8 overlapping families: 10.f.*, each /8 containing a /16 containing a /24
   containing the most specific route. *)
let family ~longest f =
  let b1 = 10 + f in
  let p8 = b1 lsl 24 in
  let p16 = p8 lor ((f + 1) lsl 16) in
  let p24 = p16 lor ((f + 2) lsl 8) in
  let deepest = p24 lor (f + 3) in
  [
    { prefix = p8; len = 8; next_hop = (f * 4) + 1 };
    { prefix = p16; len = 16; next_hop = (f * 4) + 2 };
    { prefix = p24; len = 24; next_hop = (f * 4) + 3 };
    {
      prefix = deepest land mask_of_len longest;
      len = longest;
      next_hop = (f * 4) + 4;
    };
  ]

let make_routes ~longest = List.concat_map (family ~longest) (List.init 8 Fun.id)

let routes32 = make_routes ~longest:32
let routes27 = make_routes ~longest:27
let vip = 0xC0A80101 (* 192.168.1.1 *)
let n_backends = 16
let chain_buckets = 65_536
let ring_entries = 1 lsl 24

(* A top-level walk with the best match in its arguments: a lazily
   initialized table runs this on every read of an unwritten cell, so it
   allocates neither a closure nor an accumulator tuple. *)
let rec best_match ip best_len best_nh = function
  | [] -> best_nh
  | r :: rest ->
      if route_matches r ip && r.len >= best_len then
        best_match ip r.len r.next_hop rest
      else best_match ip best_len best_nh rest

let lpm_lookup routes ip = best_match ip (-1) 0 routes
