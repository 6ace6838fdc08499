module Imap = Map.Make (Int)

type region = {
  name : string;
  base : int;
  elem_width : int;
  count : int;
  init : int -> int;
}

let region_end r = r.base + (r.elem_width * r.count)

type spec = {
  s_name : string;
  s_elem_width : int;
  s_count : int;
  s_init : int -> int;
}

let array_spec ~name ~elem_width ~count ?(init = fun _ -> 0) () =
  assert (elem_width = 1 || elem_width = 2 || elem_width = 4 || elem_width = 8);
  assert (count > 0);
  { s_name = name; s_elem_width = elem_width; s_count = count; s_init = init }

type 'v t = {
  regions : region array;  (* sorted by base *)
  overlay : 'v Imap.t;
  inject : int -> 'v;
  heap_base : int;
  heap_next : int;
  heap_end : int;
}

let start_address = 0x4000_0000 (* 1 GiB *)
let page = 4096

let round_up v align = (v + align - 1) / align * align

let layout regions =
  let next = ref start_address in
  List.map
    (fun spec ->
      let base = !next in
      let r =
        {
          name = spec.s_name;
          base;
          elem_width = spec.s_elem_width;
          count = spec.s_count;
          init = spec.s_init;
        }
      in
      next := round_up (region_end r) page;
      (spec.s_name, r))
    regions

let create ~regions ~heap_bytes ~inject =
  let placed = List.map snd (layout regions) in
  let heap_base =
    match List.rev placed with
    | [] -> start_address
    | last :: _ -> round_up (region_end last) page
  in
  let heap =
    {
      name = "heap";
      base = heap_base;
      elem_width = 8;
      count = heap_bytes / 8;
      init = (fun _ -> 0);
    }
  in
  {
    regions = Array.of_list (placed @ [ heap ]);
    overlay = Imap.empty;
    inject;
    heap_base;
    heap_next = heap_base;
    heap_end = region_end heap;
  }

(* Binary search over regions sorted by base: the index of the region
   holding [addr], -1 for none.  An index, not an option, so that a flat
   store's loads and stores allocate nothing. *)
let region_index regions addr =
  let lo = ref 0 and hi = ref (Array.length regions - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = Array.unsafe_get regions mid in
    if addr < r.base then hi := mid - 1
    else if addr >= region_end r then lo := mid + 1
    else begin
      found := mid;
      lo := !hi + 1
    end
  done;
  !found

let region_named t name =
  match Array.to_list t.regions |> List.find_opt (fun r -> r.name = name) with
  | Some r -> r
  | None -> raise Not_found

let out_of_bounds addr = Printf.sprintf "Memory: 0x%x out of bounds" addr

(* Why an access of [width] bytes at [addr] is illegal in [r]; [None]
   (nothing allocated) when it is legal. *)
let access_error r addr width =
  if width <> r.elem_width then
    Some
      (Printf.sprintf "Memory: %d-byte access in region %s (elem width %d)"
         width r.name r.elem_width)
  else if (addr - r.base) mod r.elem_width <> 0 then
    Some (Printf.sprintf "Memory: misaligned access 0x%x in region %s" addr r.name)
  else None

(* The heap cursor after allocating [bytes] at [heap_next]: allocations
   round up to 64-byte (cache-line) multiples, so distinct nodes never
   share a line. *)
let bump_heap ~heap_base ~heap_next ~heap_end ~bytes =
  let next = heap_next + round_up (max bytes 1) 64 in
  if next > heap_end then
    invalid_arg
      (Printf.sprintf "Memory.alloc: heap exhausted (%d used of %d bytes)"
         (heap_next - heap_base) (heap_end - heap_base));
  next

let locate t addr width =
  let i = region_index t.regions addr in
  if i < 0 then Error (out_of_bounds addr)
  else
    let r = t.regions.(i) in
    match access_error r addr width with Some msg -> Error msg | None -> Ok r

let try_read t ~addr ~width =
  match locate t addr width with
  | Error _ as e -> e
  | Ok r -> (
      match Imap.find_opt addr t.overlay with
      | Some v -> Ok v
      | None -> Ok (t.inject (r.init ((addr - r.base) / r.elem_width))))

let try_write t ~addr ~width v =
  match locate t addr width with
  | Error _ as e -> e
  | Ok _ -> Ok { t with overlay = Imap.add addr v t.overlay }

let read t ~addr ~width =
  match try_read t ~addr ~width with Ok v -> v | Error msg -> invalid_arg msg

let write t ~addr ~width v =
  match try_write t ~addr ~width v with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let alloc t ~bytes =
  let heap_next =
    bump_heap ~heap_base:t.heap_base ~heap_next:t.heap_next
      ~heap_end:t.heap_end ~bytes
  in
  ({ t with heap_next }, t.heap_next)

let try_alloc t ~bytes =
  match alloc t ~bytes with r -> Ok r | exception Invalid_argument msg -> Error msg

let heap_used t = t.heap_next - t.heap_base

(* ------------------------------------------------------------------ *)
(* Flat concrete store                                                  *)
(* ------------------------------------------------------------------ *)

module Flat = struct
  (* Written cells live in a per-region mutable store; untouched cells
     still read through the region's lazy initializer, so a gigabyte-scale
     direct-lookup table stays unmaterialized exactly as in the persistent
     overlay.  Small regions (the heap, counters, hash-table buckets — the
     write-hot ones) get a dense value array plus a written bitmap: O(1)
     access, no allocation after creation.  Huge regions get a hashtable
     keyed by element index, so a single scattered write never materializes
     anything around it. *)
  let dense_max = 1 lsl 18 (* elements; 2 MiB of values per region *)

  type store =
    | Dense of { values : int array; written : Bytes.t }
    | Sparse of (int, int) Hashtbl.t (* element index -> written value *)

  type t = {
    regions : region array; (* the persistent store's, heap included *)
    stores : store array; (* stores.(i) holds regions.(i)'s writes *)
    inject : int -> int;
    mutable heap_next : int;
    heap_base : int;
    heap_end : int;
  }

  (* The index of the region a legal access reaches. *)
  let locate t addr width =
    let i = region_index t.regions addr in
    if i < 0 then invalid_arg (out_of_bounds addr);
    (match access_error (Array.unsafe_get t.regions i) addr width with
    | Some msg -> invalid_arg msg
    | None -> ());
    i

  let read t ~addr ~width =
    let i = locate t addr width in
    let r = Array.unsafe_get t.regions i in
    let idx = (addr - r.base) / r.elem_width in
    match Array.unsafe_get t.stores i with
    | Dense { values; written } ->
        if
          Char.code (Bytes.unsafe_get written (idx lsr 3))
          land (1 lsl (idx land 7))
          <> 0
        then Array.unsafe_get values idx
        else t.inject (r.init idx)
    | Sparse h -> (
        match Hashtbl.find_opt h idx with
        | Some v -> v
        | None -> t.inject (r.init idx))

  let write t ~addr ~width v =
    let i = locate t addr width in
    let r = Array.unsafe_get t.regions i in
    let idx = (addr - r.base) / r.elem_width in
    match Array.unsafe_get t.stores i with
    | Dense { values; written } ->
        Array.unsafe_set values idx v;
        let byte = idx lsr 3 in
        Bytes.unsafe_set written byte
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get written byte) lor (1 lsl (idx land 7))))
    | Sparse h -> Hashtbl.replace h idx v

  let alloc t ~bytes =
    let base = t.heap_next in
    t.heap_next <-
      bump_heap ~heap_base:t.heap_base ~heap_next:base ~heap_end:t.heap_end
        ~bytes;
    base
end

let flat_of_memory (m : int t) =
  let stores =
    Array.map
      (fun r ->
        if r.count <= Flat.dense_max then
          Flat.Dense
            {
              values = Array.make r.count 0;
              written = Bytes.make ((r.count + 7) / 8) '\000';
            }
        else Flat.Sparse (Hashtbl.create 64))
      m.regions
  in
  let t =
    {
      Flat.regions = m.regions;
      stores;
      inject = m.inject;
      heap_next = m.heap_next;
      heap_base = m.heap_base;
      heap_end = m.heap_end;
    }
  in
  Imap.iter
    (fun addr v ->
      let r = m.regions.(region_index m.regions addr) in
      Flat.write t ~addr ~width:r.elem_width v)
    m.overlay;
  t
