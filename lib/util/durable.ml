(* Fsync a directory fd so the rename inside it is durable.  A no-op on
   systems where opening a directory for reading fails. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_string ~path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc s;
     flush oc;
     try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
