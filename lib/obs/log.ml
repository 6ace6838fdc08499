type level = Quiet | Info | Debug

let rank = function Quiet -> 0 | Info -> 1 | Debug -> 2

let current = ref Quiet
let set_level l = current := l

(* Pool workers log too; the lock keeps each line whole.  Lines from
   concurrent tasks interleave. *)
let stderr_mu = Mutex.create ()

let emit line =
  Mutex.protect stderr_mu (fun () ->
      output_string stderr line;
      flush stderr)

let log_at lvl prefix fmt =
  if rank lvl <= rank !current then
    Printf.ksprintf (fun s -> emit (prefix ^ s ^ "\n")) fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

let info fmt = log_at Info "castan: " fmt
let debug fmt = log_at Debug "castan[debug]: " fmt
