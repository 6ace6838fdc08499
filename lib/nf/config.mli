(** Table-population constants shared by the evaluation NFs (§5.1).

    The LPM forwarding table holds 8 routes each of /8, /16, /24 and — where
    the data structure supports it — /32 (or /27 for single-stage direct
    lookup), chosen to overlap maximally: each prefix contains a more
    specific one. *)

type route = { prefix : int; len : int; next_hop : int }

val routes32 : route list
(** Longest prefix 32: trie and DPDK LPM. *)

val routes27 : route list
(** Longest prefix 27: 1-stage direct lookup. *)

val vip : int
(** The load balancer's virtual IP, 192.168.1.1. *)

val n_backends : int
(** 16 *)

val chain_buckets : int
(** 65,536 *)

val ring_entries : int
(** 2^24 ≈ 16.7M *)

val lpm_lookup : route list -> int -> int
(** Reference longest-prefix-match over a route list; 0 when nothing
    matches.  Used to initialize tables and as the test oracle. *)

val route_matches : route -> int -> bool
