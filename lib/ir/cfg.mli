(** The flat, LLVM-like form of NFIR that the engines interpret.

    A function body is an array of simple instructions addressed by program
    counter; control flow is explicit [Branch]/[Jump].  Structured programs
    written in the {!Dsl} are translated here by {!Lower}. *)

type pexpr = Expr.pexpr

type instr =
  | Assign of string * pexpr
  | Load of { dst : string; addr : pexpr; width : int }
  | Store of { addr : pexpr; value : pexpr; width : int }
  | Alloc of { dst : string; bytes : int }
      (** Heap allocation of a statically-known size (rounded to cache
          lines); yields the base address. *)
  | Branch of { cond : pexpr; if_true : int; if_false : int; loop_head : bool }
      (** [loop_head] marks the head test of a [while]; the engine treats the
          two outcomes as "one more iteration" vs "exit now" (§3.4). *)
  | Jump of int
  | Call of { dst : string option; func : string; args : pexpr list }
  | Return of pexpr option
  | Havoc of { dst : string; input : pexpr; hash : string }
      (** [castan_havoc(input, dst, hash)]: in production semantics computes
          [dst = hash(input)]; under analysis the output is replaced by a
          fresh unconstrained symbol and the pair is recorded for later
          reconciliation (§3.5). *)

type func = { fname : string; params : string list; body : instr array }

type t = {
  name : string;
  funcs : (string, func) Hashtbl.t;
  entry : string;  (** per-packet entry point; its params are packet fields *)
  regions : Memory.spec list;
  heap_bytes : int;
}

val func : t -> string -> func
(** @raise Invalid_argument on an unknown function name. *)

val entry_func : t -> func

val successors : func -> int -> int list
(** Intra-procedural successor program counters of the instruction at [pc].
    [Call] falls through to [pc+1]; [Return] has none. *)

val leaders : func -> bool array
(** [(leaders f).(pc)] holds when [pc] starts a basic block: pc 0, every
    branch or jump target, and every instruction after a branch, jump or
    return. *)

val weight : instr -> int
(** "Instructions retired" weight of one NFIR instruction: 1 plus the number
    of operator nodes in its expressions, so a flat NFIR instruction with a
    compound right-hand side counts like the equivalent LLVM sequence. *)

val pp_instr : Format.formatter -> instr -> unit
val pp : Format.formatter -> t -> unit
