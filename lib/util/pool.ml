(* Fixed-size Domain worker pool with a determinism contract: results, and
   the telemetry totals they leave behind, are identical for every [jobs]
   value.  See pool.mli for the contract and DESIGN.md §10 for the
   rationale. *)

(* ------------------------------------------------------------------ *)
(* Job-count configuration                                             *)
(* ------------------------------------------------------------------ *)

let default_jobs_ref = ref 1
let recommended_jobs () = Domain.recommended_domain_count ()
let set_default_jobs n = default_jobs_ref := max 1 n
let default_jobs () = !default_jobs_ref

(* ------------------------------------------------------------------ *)
(* Counters (for run manifests)                                        *)
(* ------------------------------------------------------------------ *)

type stats = { tasks : int }

let tasks_total = Atomic.make 0
let stats () = { tasks = Atomic.get tasks_total }
let reset_stats () = Atomic.set tasks_total 0

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

(* True on a worker domain, so that a map issued from inside a task runs
   sequentially instead of spawning nested domains. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let resolve_jobs = function Some j -> max 1 j | None -> !default_jobs_ref

let mapi ?jobs f items =
  let jobs = resolve_jobs jobs in
  let n = List.length items in
  (* jobs = 1 is the exact pre-pool code path: no domains, no counter
     churn.  So is a nested map inside a worker. *)
  if jobs <= 1 || n <= 1 || in_worker () then List.mapi f items
  else begin
    let input = Array.of_list items in
    let workers = min jobs n in
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker_key true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Atomic.incr tasks_total;
          (match f i input.(i) with
          | v -> slots.(i) <- Done v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              slots.(i) <- Failed (e, bt));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (* A serial run raises at the first failing index, so the lowest one
       is re-raised.  Every task runs to completion first: aborting early
       would make "which exception" a race. *)
    let failure =
      Array.fold_right
        (fun s acc -> match s with Failed (e, bt) -> Some (e, bt) | _ -> acc)
        slots None
    in
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.to_list
          (Array.map
             (function Done v -> v | Pending | Failed _ -> assert false)
             slots)
  end

let map ?jobs f items = mapi ?jobs (fun _ x -> f x) items
let run ?jobs fs = ignore (mapi ?jobs (fun _ f -> f ()) fs : unit list)

let chunked ?jobs n f =
  let jobs = resolve_jobs jobs in
  if n <= 0 then []
  else if jobs <= 1 || n <= 1 || in_worker () then [ f ~lo:0 ~hi:n ]
  else begin
    let pieces = min jobs n in
    let ranges =
      List.init pieces (fun k -> (k * n / pieces, (k + 1) * n / pieces))
    in
    map ~jobs (fun (lo, hi) -> f ~lo ~hi) ranges
  end
