open Ir.Dsl

(* Entry layout: 64 bytes, cache-aligned; slot+0 holds the tagged key
   (key | 1<<50, so an occupied slot is never 0), slot+8 the value. *)

let occupied_tag = 1 lsl 50

let make () =
  let ring =
    Ir.Memory.array_spec ~name:"ring" ~elem_width:8
      ~count:(Config.ring_entries * 8) (* 64B per entry *) ()
  in
  let regions = [ ring ] in
  let base = Nf_def.region_base regions "ring" in
  let mask = Config.ring_entries - 1 in
  let slot idx = i base +: (idx *: i 64) in
  let functions =
    [
      func Flowtable.lookup_name [ "key"; "h" ]
        [
          "idx" <-- (v "h" &: i mask);
          "tagged" <-- (v "key" |: i occupied_tag);
          while_ (i 1)
            [
              load8 "e" (slot (v "idx"));
              if_ (v "e" =: i 0) [ ret (i 0) ] [];
              if_ (v "e" =: v "tagged")
                [ load8 "val" (slot (v "idx") +: i 8); ret (v "val") ]
                [];
              "idx" <-- ((v "idx" +: i 1) &: i mask);
            ];
          ret (i 0);
        ];
      func Flowtable.insert_name [ "key"; "h"; "value" ]
        [
          "idx" <-- (v "h" &: i mask);
          while_ (i 1)
            [
              load8 "e" (slot (v "idx"));
              if_ (v "e" =: i 0)
                [
                  store8 (slot (v "idx")) (v "key" |: i occupied_tag);
                  store8 (slot (v "idx") +: i 8) (v "value");
                  ret_none;
                ]
                [];
              "idx" <-- ((v "idx" +: i 1) &: i mask);
            ];
          ret_none;
        ];
    ]
  in
  {
    Flowtable.ft_name = "hash-ring";
    regions;
    heap_bytes = 1024 * 1024;
    functions;
    hash = Some Ir.Hashes.ring24;
    manual_skew = false;
  }
