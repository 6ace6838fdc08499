type failure = { stage : string; nf : string option; reason : string }

let failure ?nf ~stage reason = { stage; nf; reason }

let to_string f =
  match f.nf with
  | Some nf -> Printf.sprintf "%s(%s): %s" f.stage nf f.reason
  | None -> Printf.sprintf "%s: %s" f.stage f.reason

let by_stage failures =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let cur = match Hashtbl.find_opt counts f.stage with Some n -> n | None -> 0 in
      Hashtbl.replace counts f.stage (cur + 1))
    failures;
  Hashtbl.fold (fun stage n acc -> (stage, n) :: acc) counts []
  |> List.sort compare

let fail_fast = ref false
let set_fail_fast b = fail_fast := b

let guard ?nf ~stage f =
  try Ok (f ())
  with e when not !fail_fast -> Error (failure ?nf ~stage (Printexc.to_string e))
