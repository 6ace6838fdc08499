type failure = {
  stage : string;
  nf : string option;
  reason : string;
  backtrace : string;
}

let failure ?nf ?(backtrace = "") ~stage reason = { stage; nf; reason; backtrace }

let to_string f =
  match f.nf with
  | Some nf -> Printf.sprintf "%s(%s): %s" f.stage nf f.reason
  | None -> Printf.sprintf "%s: %s" f.stage f.reason

let pp fmt f = Format.pp_print_string fmt (to_string f)

let by_stage failures =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let cur = match Hashtbl.find_opt counts f.stage with Some n -> n | None -> 0 in
      Hashtbl.replace counts f.stage (cur + 1))
    failures;
  Hashtbl.fold (fun stage n acc -> (stage, n) :: acc) counts []
  |> List.sort compare

exception Injected of failure

let () =
  Printexc.register_printer (function
    | Injected f -> Some ("injected fault: " ^ to_string f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Fail-fast and the failure sink                                      *)
(* ------------------------------------------------------------------ *)

let fail_fast_flag = ref false
let set_fail_fast b = fail_fast_flag := b
let fail_fast () = !fail_fast_flag

(* The process-wide sink is Mutex-guarded, so pool tasks record into it
   directly.  [recorded] sorts, which makes the list independent of the
   order in which concurrent tasks failed. *)
let sink : failure list ref = ref []
let sink_mu = Mutex.create ()
let record f = Mutex.protect sink_mu (fun () -> sink := f :: !sink)

let recorded () =
  Mutex.protect sink_mu (fun () -> !sink)
  |> List.rev
  |> List.stable_sort (fun a b ->
         compare (a.nf, a.stage, a.reason) (b.nf, b.stage, b.reason))

let reset () = Mutex.protect sink_mu (fun () -> sink := [])

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let guard ?nf ~stage f =
  try Ok (f ())
  with e when not !fail_fast_flag ->
    let fl =
      match e with
      | Injected fl -> fl
      | e ->
          failure ?nf ~stage
            ~backtrace:(Printexc.get_backtrace ())
            (Printexc.to_string e)
    in
    record fl;
    Error fl

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

type deadline = float (* absolute gettimeofday instant *)

let deadline_in seconds = Unix.gettimeofday () +. seconds
let expired t = Unix.gettimeofday () >= t

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type injector = { rate : float; rng : Rng.t; draw_mu : Mutex.t }

let inject ~rate ~seed =
  { rate; rng = Rng.create (0xfa17 lxor seed); draw_mu = Mutex.create () }

let ambient : injector option ref = ref None
let set_injection i = ambient := i

let checkpoint ?nf ~stage () =
  match !ambient with
  | None -> ()
  | Some { rate; rng; draw_mu } ->
      (* rate = 0. must not even draw: a disabled injector is bit-identical
         to no injector at all.  The draw is Mutex-guarded because guarded
         stages may run on pool workers; with jobs > 1 the injection
         *pattern* depends on scheduling (the stream is shared), but each
         draw is still well-defined and serial runs are unchanged. *)
      if rate > 0. && Mutex.protect draw_mu (fun () -> Rng.float rng) < rate
      then
        raise
          (Injected (failure ?nf ~stage "injected fault (--inject-faults)"))
