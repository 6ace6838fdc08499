(** Structured NFIR, the form network functions are written in.

    Programs are authored with the {!Dsl} combinators, which produce this
    tree; {!Lower} flattens it to {!Cfg} instructions. *)

type pexpr = Expr.pexpr

type stmt =
  | Assign of string * pexpr
  | Load of string * pexpr * int  (** dst, address, width in bytes *)
  | Store of pexpr * pexpr * int  (** address, value, width in bytes *)
  | Alloc of string * int
  | If of pexpr * stmt list * stmt list
  | While of pexpr * stmt list
  | Break  (** exits the innermost [While] *)
  | Call of string option * string * pexpr list
  | Return of pexpr option
  | Havoc of string * pexpr * string

type fdef = { name : string; params : string list; body : stmt list }

type program = {
  name : string;
  entry : string;
  functions : fdef list;
  regions : Memory.spec list;
  heap_bytes : int;
}
