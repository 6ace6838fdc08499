(** The NFIR memory model.

    Memory is a set of {e regions} laid out in a byte-addressed virtual
    address space, plus a heap serving [alloc] instructions.  A region is an
    array of fixed-width elements with a {e lazy initializer}: reads that were
    never overwritten are served by calling [init] on the element index.  This
    is what makes gigabyte-scale NF tables (the 2^27-entry direct-lookup LPM
    array) representable without materializing them.

    Written values live in a persistent overlay map, so snapshotting memory
    for symbolic-state forking is O(1).  The value type is polymorphic: the
    concrete interpreter instantiates ['v = int], the symbolic engine
    ['v = Expr.sexpr]. *)

type region = {
  name : string;
  base : int;  (** assigned by {!create}; byte address *)
  elem_width : int;  (** bytes per element: 1, 2, 4 or 8 *)
  count : int;  (** number of elements *)
  init : int -> int;  (** element index -> initial value *)
}

val region_end : region -> int
(** One past the last byte. *)

type spec = { s_name : string; s_elem_width : int; s_count : int; s_init : int -> int }
(** A region before address assignment. *)

val array_spec : name:string -> elem_width:int -> count:int -> ?init:(int -> int) -> unit -> spec
(** Convenience constructor; default initializer is all-zeroes. *)

val layout : spec list -> (string * region) list
(** The deterministic address assignment {!create} uses (4KiB-aligned,
    sequential from 1GiB).  Exposed so program builders can embed region base
    addresses as constants, exactly like a linker resolving globals. *)

type 'v t

val create : regions:spec list -> heap_bytes:int -> inject:(int -> 'v) -> 'v t
(** Lays regions out sequentially (4KiB-aligned, starting at 1GiB) followed by
    the heap region. [inject] lifts initializer values into ['v]. *)

val region_named : 'v t -> string -> region
(** @raise Not_found if no region has that name. *)

val read : 'v t -> addr:int -> width:int -> 'v
(** [read t ~addr ~width] requires [addr] to be element-aligned in its region
    and [width] to equal the region's element width.
    @raise Invalid_argument otherwise. *)

val write : 'v t -> addr:int -> width:int -> 'v -> 'v t
(** Same addressing discipline as {!read}; persistent update. *)

val try_read : 'v t -> addr:int -> width:int -> ('v, string) result
(** Non-raising {!read}: out-of-bounds, misaligned and wrong-width accesses
    come back as [Error] with a descriptive message. *)

val try_write : 'v t -> addr:int -> width:int -> 'v -> ('v t, string) result
(** Non-raising {!write}. *)

val alloc : 'v t -> bytes:int -> 'v t * int
(** Bump allocation from the heap, rounded up to 64-byte (cache-line)
    multiples so distinct nodes never share a line.
    @raise Invalid_argument when the heap is exhausted. *)

val try_alloc : 'v t -> bytes:int -> ('v t * int, string) result
(** Non-raising {!alloc}: [Error] describes the heap occupancy on
    exhaustion, so the symbolic engine can kill the offending state with a
    structured reason. *)

val heap_used : 'v t -> int
(** Bytes currently allocated from the heap. *)

(** {2 Flat concrete store}

    A mutable view for concrete replay over the persistent store's own
    region array: written cells live in a dense per-region value array
    with a written bitmap, or, for regions of more than 2^18 elements, in
    a hash table keyed by element index; untouched cells still read
    through the region's lazy initializer — so gigabyte-scale tables stay
    unmaterialized, while the hot path is an array index instead of a
    persistent-map descent.  Loads and stores allocate nothing outside the
    hash tables (a hit returns an option, a first write adds a cell).
    Both stores find a region by the same search and check an access and
    bump the heap by the same rules, so {!Flat} accepts and refuses what
    {!read}/{!write}/{!alloc} do, with the same messages.  Because updates
    mutate in place, a computation aborted mid-way (e.g. on
    {!Interp.Budget_exhausted}) leaves its partial writes behind — use the
    persistent [t] where rollback-on-raise matters. *)
module Flat : sig
  type t

  val read : t -> addr:int -> width:int -> int
  val write : t -> addr:int -> width:int -> int -> unit

  val alloc : t -> bytes:int -> int
  (** Bump allocation, 64-byte rounded, mutating the heap cursor.
      @raise Invalid_argument when the heap is exhausted. *)
end

val flat_of_memory : int t -> Flat.t
(** A flat store over a concrete memory's own regions (still lazy), with
    its heap cursor and its current overlay, replayed as writes. *)
