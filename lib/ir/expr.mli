(** Expressions of NFIR, the network-function intermediate representation.

    A single polymorphic expression type serves two roles:

    - {e program expressions} ([string t]): leaves are local-variable names;
      these appear in NFIR instructions;
    - {e symbolic values} ([sym t]): leaves are input symbols (packet fields
      or havoc outputs); these are what the symbolic-execution engine
      manipulates and what path constraints range over.

    Values are OCaml [int]s (63-bit); all NF quantities — packet fields
    (at most 32 bits), table indices, byte addresses (under 2^40) — fit
    comfortably. Arithmetic follows OCaml [int] semantics; NF code keeps
    values non-negative and masks explicitly where width matters. *)

type field = Src_ip | Dst_ip | Proto | Src_port | Dst_port

val field_width : field -> int
(** Width of the field in bits: 32, 32, 8, 16, 16. *)

val all_fields : field list
val field_name : field -> string

val field_of_name : string -> field
(** Inverse of {!field_name}: how an NF's entry parameters name the packet
    fields they take.
    @raise Invalid_argument on any other name. *)

type sym =
  | Pkt of { pkt : int; field : field }
      (** Field [field] of the [pkt]-th symbolic input packet. *)
  | Fresh of { id : int; label : string }
      (** An unconstrained symbol, e.g. a havoced hash output. *)

val sym_width : sym -> int
(** Bit width of the symbol's natural range. [Fresh] symbols report the width
    encoded at creation time via {!fresh}. *)

val fresh : label:string -> width:int -> sym
(** Allocates a fresh symbol with a domain-unique id (the counter and width
    table are domain-local, so concurrent analyses on {!Util.Pool} workers
    do not interleave id sequences). *)

val reset_fresh : unit -> unit
(** Resets this domain's fresh-symbol counter and width table.
    [Core.Analyze.run] calls this at the start of every analysis so symbol
    ids depend only on the NF being analyzed, never on what ran before —
    a precondition for [-j 1] and [-j N] campaigns producing identical
    constraints. *)

val pp_sym : Format.formatter -> sym -> unit
val compare_sym : sym -> sym -> int

type unop = Neg | Bnot
type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Lshr
type cmp = Eq | Ne | Lt | Le

type 'a t =
  | Const of int
  | Leaf of 'a
  | Unop of unop * 'a t
  | Binop of binop * 'a t * 'a t
  | Cmp of cmp * 'a t * 'a t  (** yields 1 or 0 *)
  | Ite of 'a t * 'a t * 'a t

val eval : leaf:('a -> int) -> 'a t -> int
(** Evaluates under a leaf assignment. [Div]/[Rem] by zero raise
    [Division_by_zero]. [Ite c a b] evaluates [a] iff [c] is non-zero. *)

val subst : ('a -> 'b t) -> 'a t -> 'b t
(** Substitutes every leaf by an expression (monadic bind). *)

val iter_leaves : ('a -> unit) -> 'a t -> unit
val fold_leaves : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val size : 'a t -> int
(** Number of nodes; used to keep symbolic expressions in check. *)

val ops : 'a t -> int
(** Number of operator nodes ([Unop]/[Binop]/[Cmp]/[Ite]); approximates how
    many machine instructions evaluating the expression costs. *)

val apply_unop : unop -> int -> int
val apply_binop : binop -> int -> int -> int
val apply_cmp : cmp -> int -> int -> bool

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
val to_string : (Format.formatter -> 'a -> unit) -> 'a t -> string

type pexpr = string t
(** Program expressions: leaves are local-variable names. *)

type sexpr = sym t
(** Symbolic values: leaves are input symbols. *)

val equal_sexpr : sexpr -> sexpr -> bool
val pp_sexpr : Format.formatter -> sexpr -> unit
