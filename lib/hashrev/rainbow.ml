type keyspace = { ks_name : string; count : int; key_of_index : int -> int }

let keyspace ~name ~count ~key_of_index =
  if count <= 0 || count land (count - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Rainbow.keyspace %s: count %d is not a power of two" name
         count);
  { ks_name = name; count; key_of_index }

type repr =
  | Chains of {
      chain_len : int;
      (* endpoint key-index -> start key-indices *)
      ends : (int, int list) Hashtbl.t;
    }
  | Exhaustive of { starts : int array; keys : int array }
      (* counting-sorted by hash value: keys with hash h live at
         keys[starts.(h) .. starts.(h+1) - 1]; compact enough for the
         "a few million entries" tables the paper calls for *)

type t = { hash : Ir.Hashes.t; ks : keyspace; repr : repr }

(* Column-salted reduction: maps a hash value to a key index.  Hash values
   are non-negative and [count] a power of two, so the mask is [mod count]
   without the division every chain step would otherwise pay. *)
let reduce ks column h = (h + (column * 0x9E3779B9) + column) land (ks.count - 1)

let chain_end hash ks chain_len start_idx =
  let rec go idx col =
    if col >= chain_len then idx
    else
      let h = hash.Ir.Hashes.apply (ks.key_of_index idx) in
      go (reduce ks (col + 1) h) (col + 1)
  in
  go start_idx 0

let build ~hash ~chains ~chain_len ks =
  let ends = Hashtbl.create chains in
  let n = min chains ks.count in
  (* Each chain walk is a pure function of its start point, so the walks
     shard freely across pool workers; the table insertions happen on the
     main domain in chain order, making the bucket lists (and therefore
     [invert]'s candidate order) identical to a serial build. *)
  let shards =
    Util.Pool.chunked n (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k ->
            let c = lo + k in
            (* Deterministic spread of start points across the key space. *)
            let start = c * (ks.count / n) in
            (start, chain_end hash ks chain_len start)))
  in
  List.iter
    (Array.iter (fun (start, e) ->
         let cur =
           match Hashtbl.find_opt ends e with Some l -> l | None -> []
         in
         Hashtbl.replace ends e (start :: cur)))
    shards;
  { hash; ks; repr = Chains { chain_len; ends } }

let build_exhaustive ~hash ks =
  let space = 1 lsl hash.Ir.Hashes.bits in
  let counts = Array.make (space + 1) 0 in
  for i = 0 to ks.count - 1 do
    let h = hash.Ir.Hashes.apply (ks.key_of_index i) in
    counts.(h + 1) <- counts.(h + 1) + 1
  done;
  for h = 1 to space do
    counts.(h) <- counts.(h) + counts.(h - 1)
  done;
  let starts = counts in
  let keys = Array.make ks.count 0 in
  let cursor = Array.copy starts in
  for i = 0 to ks.count - 1 do
    let k = ks.key_of_index i in
    let h = hash.Ir.Hashes.apply k in
    keys.(cursor.(h)) <- k;
    cursor.(h) <- cursor.(h) + 1
  done;
  { hash; ks; repr = Exhaustive { starts; keys } }

(* Walk a chain from [start_idx] through column [last] looking for a key
   whose hash is [h]. *)
let find_in_chain t start_idx ~last h =
  let ks = t.ks in
  let rec go idx col =
    if col > last then None
    else
      let key = ks.key_of_index idx in
      let hv = t.hash.Ir.Hashes.apply key in
      if hv = h then Some key else go (reduce ks (col + 1) hv) (col + 1)
  in
  go start_idx 0

let invert t h =
  match t.repr with
  | Exhaustive { starts; keys } ->
      if h < 0 || h + 1 >= Array.length starts then []
      else
        List.init (starts.(h + 1) - starts.(h)) (fun k -> keys.(starts.(h) + k))
  | Chains { chain_len; ends } ->
      (* Assume h appears at column j; complete the chain to its endpoint,
         look the endpoint up, and re-walk the matching chains from their
         starts.  Each re-walk stops at column j: a chain whose first h sits
         at a higher column c ends where the column-c walk ends, so that
         walk, made earlier, already listed its key. *)
      let candidates = ref [] in
      for j = chain_len - 1 downto 0 do
        let idx = ref (reduce t.ks (j + 1) h) in
        for col = j + 1 to chain_len - 1 do
          let hv = t.hash.Ir.Hashes.apply (t.ks.key_of_index !idx) in
          idx := reduce t.ks (col + 1) hv
        done;
        match Hashtbl.find_opt ends !idx with
        | Some starts ->
            List.iter
              (fun s ->
                match find_in_chain t s ~last:j h with
                | Some key when not (List.mem key !candidates) ->
                    candidates := key :: !candidates
                | _ -> ())
              starts
        | None -> ()
      done;
      List.rev !candidates

let coverage_sample t ~samples =
  (* Sample [i] draws from its own index-derived stream ({!Util.Rng.split_ix}),
     so the hit count is independent of how samples are sharded across
     workers — and equal to the serial count. *)
  let root = Util.Rng.create 0xc0de in
  let shard_hits =
    Util.Pool.chunked samples (fun ~lo ~hi ->
        let hits = ref 0 in
        for i = lo to hi - 1 do
          let rng = Util.Rng.split_ix root i in
          (* Sample hash values that are actually achievable. *)
          let k = t.ks.key_of_index (Util.Rng.int rng t.ks.count) in
          let h = t.hash.Ir.Hashes.apply k in
          if invert t h <> [] then incr hits
        done;
        !hits)
  in
  float_of_int (List.fold_left ( + ) 0 shard_hits) /. float_of_int samples
