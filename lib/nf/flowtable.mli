(** Common shape of the per-flow state containers used by NAT and LB
    (§5.1, "Data Structures").

    Each implementation provides two NFIR functions with fixed signatures:

    - [ft_lookup(key, h)] — returns the stored value, or 0 on a miss;
    - [ft_insert(key, h, value)] — stores a new entry ([value] non-zero).

    [key] is the packed flow key (at most 50 bits); [h] is the hash value the
    NF computed via [castan_havoc] before calling — ignored by the tree
    variants, which are comparison-based.  Hashing once in the NF and passing
    the result mirrors real NF code and ensures lookup and insert agree on
    the bucket under analysis. *)

type t = {
  ft_name : string;
  regions : Ir.Memory.spec list;
  heap_bytes : int;
  functions : Ir.Ast.fdef list;  (** defining [ft_lookup] and [ft_insert] *)
  hash : Ir.Hashes.t option;
      (** the hash the NF must havoc before calling, if any *)
  manual_skew : bool;
      (** whether a hand-crafted skew workload exists for this structure
          (the unbalanced tree); red-black trees and hash structures have
          none in the paper *)
}

val lookup_name : string
val insert_name : string
