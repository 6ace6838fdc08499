(** The simulated CPU cache hierarchy, operating on physical addresses.

    L1d and L2 are indexed in the traditional way by low physical-address
    bits; the L3 is physically indexed and split into slices selected by a
    {e hidden} hash of the physical line address — the simulator's stand-in
    for Intel's proprietary slice-selection function.  The L3 is inclusive:
    evicting a line from L3 back-invalidates it from L1d and L2, which is
    what makes L3 contention-set attacks effective end to end.

    The slice hash is deliberately not exported except through
    {!ground_truth_slice}, which exists for the oracle cache model and for
    validating contention-set discovery in tests; the discovery procedure
    itself ({!Contention}) never calls it. *)

type t

type hit = L1 | L2 | L3 | Dram

val create : ?slice_seed:int -> ?prefetch:bool -> Geometry.t -> t
(** [slice_seed] perturbs the hidden slice hash, modeling different CPU
    models. Default 0 = the repository's canonical "Xeon".

    [prefetch] (default false) enables a next-line prefetcher: an access
    that misses L2 also fills the following line, uncounted.  The paper
    argues prefetching barely affects NF performance because NF access
    patterns are traffic-driven, not sequential (§3.3); the
    [ablation-prefetch] experiment checks that claim in this simulator.

    L1d and L2 are indexed by shift and mask.
    @raise Invalid_argument when the line size or the L1d or L2 set count
    is not a power of two. *)

val access : t -> int -> hit
(** [access t paddr] performs a load/store at a physical byte address,
    updating all levels; returns the level that served it. *)

val latency : Geometry.t -> hit -> int
(** Cycle cost of a memory access served at the given level. *)

val flush : t -> unit
(** Empties every level ({!Level.flush} on L1d, L2 and each L3 slice).
    Costs the sets filled since the last flush × their ways, summed over
    the levels: a probe that touched a few lines pays for a few sets, not
    for the 25.6 MiB L3. *)

val invalidate_line : t -> int -> unit
(** Evict the line holding this physical address from every level — what a
    NIC's DMA write does to a packet buffer on systems without DDIO. *)

val ground_truth_slice : t -> int -> int
(** Hidden slice of a physical address; see module comment. *)

val l3_set : t -> int -> int
(** In-slice L3 set index of a physical address (page-independent bits are
    not guaranteed; callers must treat this as physical). *)
