(** The one-way hash functions used by the flow-table NFs.

    Each hash maps a packed flow key (an integer of at most 48 bits) to a
    small hash value; the NFs mask it down to their table size.  These are
    the functions that [castan_havoc] disables under analysis and that
    rainbow tables reverse during reconciliation (§3.5).

    They are deliberately {e not} cryptographic — the paper's point is that
    NF hashes are typically weak mixers chosen for speed — but they do mix
    all key bits into the output, so symbolically executing them would
    produce expressions beyond any solver's practical reach, which is exactly
    why havocing is needed.

    This module is the one owner of a hash's semantics: {!Interp} and
    {!Compile} apply it and retire its weight, and the symbolic engine
    gives a havoc's fresh output symbol its width and charges its weight.
    Reversing it is [Hashrev]'s job. *)

type t = {
  name : string;
  bits : int;  (** output width *)
  weight : int;  (** instructions retired per application *)
  apply : int -> int;
}

val flow16 : t
(** 16-bit output: indexes the 65,536-entry chained hash table. *)

val ring24 : t
(** 24-bit output: indexes the 16.7M-entry open-addressing hash ring. *)

val all : t list
(** Every declared hash: [[flow16; ring24]]. *)

val lookup : string -> t
(** @raise Invalid_argument on an unknown name. *)

val mask : t -> int
(** [2^bits - 1]. *)
