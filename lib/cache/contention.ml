(* The three-step discovery of §3.2.  [S] is kept as a list of virtual
   addresses; probing time is measured on the simulated machine. *)

let probe m s = Probe.probe_time m (Array.of_list s)

(* Step 1: grow S until adding some address A bumps probing time past δ.
   Returns (S including A, A, remaining candidates). *)
let grow m ~delta candidates =
  let rec go s time = function
    | [] -> None
    | a :: rest ->
        let s' = a :: s in
        let time' = probe m s' in
        if time > 0 && time' - time > delta then Some (s', rest)
        else go s' time' rest
  in
  go [] 0 candidates

(* Step 2: shrink S to exactly the α+1 members of the contention set C:
   removing a member of C relieves the thrashing (drop > δ), removing an
   unrelated address does not. *)
let shrink m ~delta s =
  let full_time = probe m s in
  let rec go kept pending time =
    match pending with
    | [] -> kept
    | a :: rest ->
        let s' = kept @ rest in
        let time' = probe m s' in
        if time - time' > delta then go (a :: kept) rest time
        else go kept rest time'
  in
  go [] s full_time

(* Step 3: classify remaining candidates: swapping a member of C for A keeps
   the probing time high iff A also belongs to C. *)
let classify m ~delta core candidates =
  match core with
  | [] -> []
  | victim :: rest ->
      let base_time = probe m core in
      List.filter
        (fun a ->
          let time = probe m (a :: rest) in
          base_time - time <= delta)
        candidates
      |> fun extra -> victim :: rest @ extra

(* Sets one discovery run establishes at most. *)
let sets_per_run = 64

let discover_sets m ~pool =
  let delta = Probe.delta m.Probe.geom in
  let rec loop sets candidates n =
    if n = 0 || List.length candidates <= Geometry.l3_assoc m.Probe.geom then
      List.rev sets
    else
      match grow m ~delta candidates with
      | None -> List.rev sets
      | Some (s, _unused_rest) ->
          let core = shrink m ~delta s in
          if core = [] then List.rev sets
          else
            let others = List.filter (fun a -> not (List.mem a core)) candidates in
            let full_set = classify m ~delta core others in
            let remaining =
              List.filter (fun a -> not (List.mem a full_set)) candidates
            in
            loop (full_set :: sets) remaining (n - 1)
  in
  loop [] (Array.to_list pool) sets_per_run

type t = {
  alpha : int;
  line : int;
  class_of : (int, int) Hashtbl.t;
  n_classes : int;
}

let consistent ~pages ~reboots ~geom ~offsets =
  (* Each run assigns every offset a local set id (or none).  Offsets are
     consistently co-located iff their id vectors across all runs agree.
     Each reboot probes a machine of its own, so reboots are pool tasks; a
     reboot's pages run in order, because [Vmem] places a page on first
     touch. *)
  let reboot_runs reboot =
    let m = Probe.machine ~vmem_seed:(1 + reboot) geom in
    List.init pages (fun i ->
        let base = (i + 1) lsl Vmem.page_bits in
        let pool = Array.map (fun o -> base + o) offsets in
        let sets = discover_sets m ~pool in
        let ids = Hashtbl.create (Array.length offsets) in
        List.iteri
          (fun id members ->
            List.iter (fun a -> Hashtbl.replace ids (Vmem.offset_of a) id) members)
          sets;
        ids)
  in
  (* Last run first, as the serial loop listed them: the class ids below
     follow [Hashtbl] iteration over the signatures. *)
  let runs =
    List.rev (List.concat (Util.Pool.map reboot_runs (List.init reboots Fun.id)))
  in
  let signature o =
    List.map
      (fun ids -> match Hashtbl.find_opt ids o with Some id -> id | None -> -1)
      runs
  in
  (* Offsets unclassified in any run are dropped; the rest are grouped by
     their cross-run signature. *)
  let groups : (int list, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      let s = signature o in
      if not (List.mem (-1) s) then
        let cur = match Hashtbl.find_opt groups s with Some l -> l | None -> [] in
        Hashtbl.replace groups s (o :: cur))
    offsets;
  let class_of = Hashtbl.create (Array.length offsets) in
  let n = ref 0 in
  Hashtbl.iter
    (fun _sig members ->
      if List.length members >= 2 then begin
        List.iter
          (fun o -> Hashtbl.replace class_of (o / geom.line) !n)
          members;
        incr n
      end)
    groups;
  { alpha = Geometry.l3_assoc geom; line = geom.line; class_of; n_classes = !n }

let standard_offsets geom ~count =
  let unit = Geometry.l3_sets_per_slice geom * geom.Geometry.line in
  let page = 1 lsl Vmem.page_bits in
  let spread = max 1 (page / unit / count) in
  Array.init count (fun i -> i * spread * unit)

let class_of_vaddr t vaddr =
  Hashtbl.find_opt t.class_of (Vmem.offset_of vaddr / t.line)

let classes t =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun line_id cls ->
      let cur = match Hashtbl.find_opt acc cls with Some l -> l | None -> [] in
      Hashtbl.replace acc cls (line_id * t.line :: cur))
    t.class_of;
  Hashtbl.fold (fun cls members l -> (cls, List.sort compare members) :: l) acc []
  |> List.sort compare

let save t path =
  let b = Buffer.create 4096 in
  Printf.bprintf b "castan-contention-sets v1 alpha=%d line=%d classes=%d\n"
    t.alpha t.line t.n_classes;
  Hashtbl.iter
    (fun line_id cls -> Printf.bprintf b "%d %d\n" (line_id * t.line) cls)
    t.class_of;
  Util.Durable.write_string ~path (Buffer.contents b)

exception Parse_error of string

let load_result path =
  let parse ic =
    let lineno = ref 1 in
    let fail reason =
      raise (Parse_error (Printf.sprintf "%s: line %d: %s" path !lineno reason))
    in
    let header =
      try input_line ic with End_of_file -> fail "empty file (missing header)"
    in
    let alpha, line, n_classes =
      try
        Scanf.sscanf header "castan-contention-sets v1 alpha=%d line=%d classes=%d"
          (fun a l c -> (a, l, c))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail
          (Printf.sprintf
             "bad header %S (expected \"castan-contention-sets v1 alpha=.. \
              line=.. classes=..\")"
             header)
    in
    if line <= 0 then fail (Printf.sprintf "non-positive line size %d" line);
    let class_of = Hashtbl.create 256 in
    (try
       while true do
         incr lineno;
         let l = input_line ic in
         if String.trim l <> "" then begin
           let offset, cls =
             try Scanf.sscanf l " %d %d" (fun o c -> (o, c))
             with Scanf.Scan_failure _ | Failure _ | End_of_file ->
               fail
                 (Printf.sprintf "malformed entry %S (expected \"offset class\")" l)
           in
           if offset mod line <> 0 then
             fail
               (Printf.sprintf "misaligned offset %d (line size %d)" offset line);
           if cls < 0 || cls >= n_classes then
             fail
               (Printf.sprintf "class %d out of range (classes=%d)" cls
                  n_classes);
           Hashtbl.replace class_of (offset / line) cls
         end
       done
     with End_of_file -> ());
    { alpha; line; class_of; n_classes }
  in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match parse ic with
          | t -> Ok t
          | exception Parse_error reason -> Error reason)

let load path =
  match load_result path with
  | Ok t -> t
  | Error reason -> failwith ("Contention.load: " ^ reason)
