type pexpr = Expr.pexpr

type stmt =
  | Assign of string * pexpr
  | Load of string * pexpr * int
  | Store of pexpr * pexpr * int
  | Alloc of string * int
  | If of pexpr * stmt list * stmt list
  | While of pexpr * stmt list
  | Break
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
