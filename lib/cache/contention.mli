(** Reverse-engineering L3 cache contention sets (§3.2).

    A contention set is a maximal group of addresses such that bringing
    [α + 1] of them into an empty L3 evicts one, where [α] is the L3
    associativity.  Because the slice-selection algorithm is hidden, the
    discovery is purely empirical: grow a probe set until its probing time
    jumps by more than the contention threshold δ, shrink it to exactly the
    [α + 1] contending members, then classify every remaining candidate by
    substitution.  Never consults {!Hierarchy.ground_truth_slice}.

    Physical indexing makes raw results run-specific, so {!consistent}
    repeats the discovery over several 1GB virtual pages and simulated
    reboots and keeps only the classes of page offsets that co-locate every
    time. *)

val discover_sets : Probe.machine -> pool:int array -> int list list
(** [discover_sets m ~pool] partitions (a subset of) the candidate virtual
    addresses into at most 64 contention sets, largest signal first.
    Addresses whose set could not be established are omitted. *)

type t = {
  alpha : int;  (** L3 associativity used during discovery *)
  line : int;
  class_of : (int, int) Hashtbl.t;  (** page-offset line id -> class id *)
  n_classes : int;
}

val consistent :
  pages:int -> reboots:int -> geom:Geometry.t -> offsets:int array -> t
(** [consistent ~pages ~reboots ~geom ~offsets] runs the discovery on
    [pages] distinct 1GB virtual pages across [reboots] simulated reboots
    (fresh page placements, same CPU: slice hash 0) and intersects the
    results.  [offsets] are line-aligned byte offsets within a 1GB page.
    The pipeline's page and reboot counts are
    [Castan.Analyze.discover_contention_sets]'s.  Each reboot is one
    {!Util.Pool.map} task, so the result is the same at every job count. *)

val standard_offsets : Geometry.t -> count:int -> int array
(** The canonical candidate pool: [count] line-aligned page offsets that all
    share the in-slice L3 set index (stride = sets-per-slice × line size),
    spread evenly across the 1GB page.  Keeping the set index fixed makes the
    only unknown the slice, which is exactly what discovery must recover. *)

val class_of_vaddr : t -> int -> int option
(** Consistent class of a virtual address (by its page offset), if known. *)

val classes : t -> (int * int list) list
(** [(class id, member page offsets)] pairs. *)

val save : t -> string -> unit
(** Persist the discovered sets (discovery is the expensive step of the
    workflow: probe the machine once, analyze many NFs).  Plain text:
    a header line, then one "offset class" pair per line, written
    atomically ({!Util.Durable.write_string}). *)

val load_result : string -> (t, string) result
(** Non-raising loader.  [Error] carries a descriptive message — file, line
    number and reason — for unreadable or malformed files (bad header,
    malformed entry, misaligned offset, class id outside
    [\[0, classes)]). *)

val load : string -> t
(** Raising convenience wrapper over {!load_result}.
    @raise Failure on unreadable or malformed files. *)
