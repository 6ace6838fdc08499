type span = {
  name : string;
  start : float;  (* gettimeofday at enter *)
  args : (string * Json.t) list;
}

let current : Sink.t ref = ref Sink.null
let t0 = ref 0.

(* Open spans, summed over every domain that has some open. *)
let depth_ = Atomic.make 0

(* Shared by every disabled [enter]: the hot path allocates nothing when
   tracing is off. *)
let disabled_span = { name = "<disabled>"; start = 0.; args = [] }

(* Pool workers write to the same sink as the main domain; the lock keeps
   each line whole.  Lines from concurrent tasks interleave. *)
let sink_mu = Mutex.create ()

let enabled () = Sink.active !current

let set_sink s =
  Sink.close !current;
  current := s;
  t0 := Unix.gettimeofday ();
  Atomic.set depth_ 0

let close () = set_sink Sink.null
let depth () = Atomic.get depth_

let us_since_start t = (t -. !t0) *. 1e6

let emit ~name ~ph ~ts ?dur ~args () =
  (* One viewer track per domain: the main domain is tid 1. *)
  let tid = (Domain.self () :> int) + 1 in
  let fields =
    [ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", Json.Float ts);
      ("pid", Json.Int 1); ("tid", Json.Int tid) ]
    @ (match dur with Some d -> [ ("dur", Json.Float d) ] | None -> [])
    @ (match ph with "i" -> [ ("s", Json.Str "t") ] | _ -> [])
    @ (match args with [] -> [] | l -> [ ("args", Json.Obj l) ])
  in
  let line = Json.to_string (Json.Obj fields) in
  Mutex.protect sink_mu (fun () -> Sink.write !current line)

let enter ?(args = []) name =
  if not (enabled ()) then disabled_span
  else begin
    Atomic.incr depth_;
    { name; start = Unix.gettimeofday (); args }
  end

let exit sp =
  if sp == disabled_span then 0.
  else begin
    Atomic.decr depth_;
    let now = Unix.gettimeofday () in
    let dur = now -. sp.start in
    emit ~name:sp.name ~ph:"X" ~ts:(us_since_start sp.start)
      ~dur:(dur *. 1e6) ~args:sp.args ();
    dur
  end

let with_span ?(args = []) name f =
  if not (enabled ()) then f ()
  else
    let sp = enter ~args name in
    match f () with
    | v ->
        ignore (exit sp : float);
        v
    | exception e ->
        ignore (exit sp : float);
        raise e

let timed ?(args = []) name f =
  let emitting = enabled () in
  if emitting then Atomic.incr depth_;
  let start = Unix.gettimeofday () in
  let finish () =
    let dur = Unix.gettimeofday () -. start in
    if emitting then begin
      Atomic.decr depth_;
      emit ~name ~ph:"X" ~ts:(us_since_start start) ~dur:(dur *. 1e6) ~args ()
    end;
    dur
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish () : float);
      raise e

let instant ?(args = []) name =
  if enabled () then
    emit ~name ~ph:"i" ~ts:(us_since_start (Unix.gettimeofday ())) ~args ()
