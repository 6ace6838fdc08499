(* Counters are atomic, so pool tasks bump the shared instruments directly
   and the totals do not depend on which domain ran what.  The registry
   table is only touched under [registry_mu]; instrumented modules create
   their counters once, at initialisation. *)
type counter = int Atomic.t

let active_flag = ref false
let set_active b = active_flag := b
let active () = !active_flag

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let counter name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add registry name c;
          c)

let incr ?(by = 1) c =
  if !active_flag then ignore (Atomic.fetch_and_add c by : int)

let counter_value = Atomic.get

let snapshot () =
  let counters =
    Mutex.protect registry_mu (fun () ->
        Hashtbl.fold (fun name c acc -> (name, Json.Int (Atomic.get c)) :: acc)
          registry [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Json.Obj [ ("counters", Json.Obj counters) ]

let reset () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) registry)
