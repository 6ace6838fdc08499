(* Reverse-engineering L3 cache contention sets (§3.2).

   The simulated Xeon hides its slice-selection hash, exactly like the real
   part; this example runs the probing-time discovery, post-processes for
   consistency across pages and reboots, and then validates the result
   against the simulator's ground truth (which the discovery itself never
   consults).

     dune exec examples/contention_discovery.exe *)

let smoke = Sys.getenv_opt "CASTAN_SMOKE" <> None

let () =
  let geom = Cache.Geometry.xeon_e5_2667v2 in
  Printf.printf "machine: L3 %dKiB, %d-way, %d slices (hidden hash), δ = %d cycles\n"
    geom.l3.size_kib geom.l3.ways geom.l3_slices (Cache.Probe.delta geom);

  (* One raw discovery run on a single page. *)
  let m = Cache.Probe.machine ~slice_seed:0 ~vmem_seed:1 geom in
  let count = 192 in
  let offsets = Cache.Contention.standard_offsets geom ~count in
  let pool = Array.map (fun o -> (1 lsl 30) + o) offsets in
  let t0 = Unix.gettimeofday () in
  let sets = Cache.Contention.discover_sets m ~pool in
  Printf.printf "single run: %d sets (sizes %s) in %.1fs\n%!"
    (List.length sets)
    (String.concat "," (List.map (fun s -> string_of_int (List.length s)) sets))
    (Unix.gettimeofday () -. t0);

  (* Validate each set against ground truth. *)
  let truth a =
    let pa = Cache.Vmem.translate m.Cache.Probe.vmem a in
    ( Cache.Hierarchy.ground_truth_slice m.Cache.Probe.hier pa,
      Cache.Hierarchy.l3_set m.Cache.Probe.hier pa )
  in
  let pure =
    List.for_all
      (fun members ->
        match List.map truth members with
        | [] -> true
        | k0 :: rest -> List.for_all (( = ) k0) rest)
      sets
  in
  Printf.printf "ground-truth purity: %s\n%!" (if pure then "OK" else "FAILED");
  if sets = [] || not pure then exit 1;

  (* The consistent model used by the analysis: several pages x reboots. *)
  let t1 = Unix.gettimeofday () in
  let consistent =
    Cache.Contention.consistent ~pages:(if smoke then 1 else 2)
      ~reboots:(if smoke then 1 else 2) ~geom
      ~offsets:(Cache.Contention.standard_offsets geom ~count)
  in
  Printf.printf "consistent across pages/reboots: %d classes in %.1fs\n"
    consistent.Cache.Contention.n_classes
    (Unix.gettimeofday () -. t1);
  List.iter
    (fun (cls, members) ->
      Printf.printf "  class %d: %d page offsets\n" cls (List.length members))
    (Cache.Contention.classes consistent);
  if consistent.Cache.Contention.n_classes = 0 then exit 1
