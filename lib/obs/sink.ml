type t =
  | Null
  | File of { path : string; oc : out_channel; mutable closed : bool }

let null = Null

(* The stream goes to [path ^ ".tmp"] and only renames into place on a
   clean close: a crashed run leaves the previous trace file (if any)
   intact instead of a torn half-stream. *)
let file path = File { path; oc = open_out (path ^ ".tmp"); closed = false }
let active = function Null -> false | File _ -> true

let write t line =
  match t with
  | File f when not f.closed ->
      output_string f.oc line;
      output_char f.oc '\n'
  | Null | File _ -> ()

let close = function
  | Null -> ()
  | File f ->
      if not f.closed then begin
        f.closed <- true;
        flush f.oc;
        (try Unix.fsync (Unix.descr_of_out_channel f.oc)
         with Unix.Unix_error _ -> ());
        close_out f.oc;
        Sys.rename (f.path ^ ".tmp") f.path
      end
