type hit = L1 | L2 | L3 | Dram

type t = {
  l1d : Level.t;
  l2 : Level.t;
  l3 : Level.t array;  (* one Level per slice *)
  slice_masks : int array;  (* hidden XOR-parity hash *)
  l3_sets : int;
  line_shift : int;
  l1_mask : int;  (* set-index masks *)
  l2_mask : int;
  prefetch : bool;
}

(* The hidden slice hash: each output bit is the XOR-parity of the physical
   line address masked by a per-bit pattern — the same family as the
   reverse-engineered Intel functions (Apecechea et al., 2015). *)
let make_slice_masks ~seed ~bits =
  let rng = Util.Rng.create (0x51ce + seed) in
  Array.init bits (fun _ ->
      (* Mix plenty of physical-address bits, up to bit 34 of the line id. *)
      Int64.to_int (Int64.logand (Util.Rng.bits64 rng) 0x7_FFFF_FFFFL))

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(slice_seed = 0) ?(prefetch = false) geom =
  let l1_sets = Geometry.sets geom geom.l1d in
  let l2_sets = Geometry.sets geom geom.l2 in
  let l3_sets = Geometry.l3_sets_per_slice geom in
  List.iter
    (fun (what, n) ->
      if not (is_pow2 n) then
        invalid_arg
          (Printf.sprintf "Hierarchy.create: %s %d is not a power of two" what
             n))
    [ ("line size", geom.line); ("L1 set count", l1_sets);
      ("L2 set count", l2_sets) ];
  {
    l1d = Level.create ~sets:l1_sets ~ways:geom.l1d.ways;
    l2 = Level.create ~sets:l2_sets ~ways:geom.l2.ways;
    l3 =
      Array.init geom.l3_slices (fun _ ->
          Level.create ~sets:l3_sets ~ways:geom.l3.ways);
    slice_masks = make_slice_masks ~seed:slice_seed ~bits:(log2 geom.l3_slices);
    l3_sets;
    line_shift = log2 geom.line;
    l1_mask = l1_sets - 1;
    l2_mask = l2_sets - 1;
    prefetch;
  }

let line t paddr = paddr lsr t.line_shift
let l1_set t line = line land t.l1_mask
let l2_set t line = line land t.l2_mask

let slice_of_line t line =
  let masks = t.slice_masks in
  let acc = ref 0 in
  for bit = 0 to Array.length masks - 1 do
    acc := !acc lor (parity (line land Array.unsafe_get masks bit) lsl bit)
  done;
  !acc

let ground_truth_slice t paddr = slice_of_line t (line t paddr)
let l3_set t paddr = line t paddr mod t.l3_sets

let latency (geom : Geometry.t) = function
  | L1 -> geom.lat_l1
  | L2 -> geom.lat_l2
  | L3 -> geom.lat_l3
  | Dram -> geom.lat_dram

let rec access_line t line ~allow_prefetch =
  if Level.access t.l1d ~set:(l1_set t line) ~tag:line then L1
  else if Level.access t.l2 ~set:(l2_set t line) ~tag:line then L2
  else begin
    let slice = slice_of_line t line in
    let l3 = t.l3.(slice) in
    let l3_hit = Level.access l3 ~set:(line mod t.l3_sets) ~tag:line in
    (* Inclusive L3: a victim disappears from the inner levels too. *)
    let victim = Level.last_evicted l3 in
    if victim >= 0 then begin
      Level.invalidate t.l1d ~set:(l1_set t victim) ~tag:victim;
      Level.invalidate t.l2 ~set:(l2_set t victim) ~tag:victim
    end;
    (* Next-line prefetch on an L2 miss; the fill itself never recurses. *)
    if t.prefetch && allow_prefetch then
      ignore (access_line t (line + 1) ~allow_prefetch:false);
    if l3_hit then L3 else Dram
  end

let access t paddr = access_line t (line t paddr) ~allow_prefetch:true

let flush t =
  Level.flush t.l1d;
  Level.flush t.l2;
  Array.iter Level.flush t.l3

let invalidate_line t paddr =
  let line = line t paddr in
  Level.invalidate t.l1d ~set:(l1_set t line) ~tag:line;
  Level.invalidate t.l2 ~set:(l2_set t line) ~tag:line;
  let slice = slice_of_line t line in
  Level.invalidate t.l3.(slice) ~set:(line mod t.l3_sets) ~tag:line
