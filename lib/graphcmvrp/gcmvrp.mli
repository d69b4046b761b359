(** CMVRP on general weighted graphs — the extension Chapter 6 of the
    thesis lists as an open direction ("we have only discussed the case
    where the underlying graph is a grid").

    The model transfers verbatim: one vehicle of capacity [W] per vertex,
    travel along an edge costs its weight, one unit of energy per job.
    The LP machinery of Chapter 2 never used the grid structure — only
    shortest-path distances — so program (2.8) and its value
    [ω* = max_T ω_T] generalize directly, with [N_r(T)] the set of
    vertices within weighted distance [r] of [T], and {!omega_star} runs
    the grid's own bracket scan ({!Oracle.scan}).  What does NOT
    generalize is the cube partition behind the constructive upper bound;
    we replace it with a greedy ball-cover heuristic and measure how far
    it lands from [ω*] (experiment E14).  On unit-weight path and grid
    graphs the answers are the Z^l oracle's bit for bit, and the test
    suite checks exactly that. *)

type t

val create : Digraph.t -> demand:int array -> t
(** The digraph is interpreted as undirected (add both arcs) with
    positive integer weights (at radius 0 a vertex is its own only
    neighbour, as {!Oracle.scan} needs); [demand.(v)] is vertex [v]'s
    demand.  Raises [Invalid_argument] on size mismatch, negative demand
    or a weight [<= 0]. *)

val n_vertices : t -> int

val total_demand : t -> int
(** The sum of all demands.
    @raise Energy.Overflow if it does not fit in an [int]. *)

val distance : t -> int -> int -> int
(** Shortest-path distance ([max_int] when disconnected).  All-pairs
    tables are computed lazily, one Dijkstra per source. *)

val neighborhood_size : t -> int list -> radius:int -> int
(** [|N_r(T)|]: vertices within weighted distance [radius] of the set,
    counted by one multi-source {!Paths.search}. *)

val omega_star : t -> float
(** Value of the generalized program (2.8), on {!Oracle}'s LP grid: the
    lower bound on the graph [Woff].  {!Oracle.scan} runs on an instance
    that one Dijkstra per demand vertex grows, truncated at each radius
    and resumed at the next; a vertex becomes a supplier the first time
    a search settles it. *)

val witness : t -> (int list * float) option
(** {!Oracle.tight_set} on that instance: demand vertices [T] with [ω_T],
    computed exactly by {!Omega.solve} over {!neighborhood_size}.  [None]
    only for zero total demand. *)

val cover : t -> int array * int
(** The greedy ball cover: the unclustered vertex of largest demand (the
    first in vertex order on a tie) claims every unclustered vertex
    within distance [max 1 ⌈ω*⌉] of it, until every demand vertex is
    clustered.  Returns each vertex's cluster id, [-1] for a vertex no
    ball reached, and the number of clusters; ids count up in claiming
    order. *)

(** A constructive upper bound: greedy ball cover + budgeted service. *)
type plan = {
  clusters : int list array;  (** cluster id -> member vertices *)
  assignments : (int * int * int) list;
      (** (vehicle, site, units): vehicle travels to the site and serves *)
}

val plan_greedy : t -> plan
(** Takes the clusters of {!cover}, members in vertex order, then serves
    each cluster with its own vehicles in budgeted chunks.  Always
    succeeds on a connected graph. *)

val plan_max_energy : t -> plan -> int
(** Peak per-vehicle energy of the plan (travel + units), the measured
    graph-[Woff] upper bound. *)

val validate_plan : t -> plan -> (unit, string) result
(** Every unit served exactly once; every vehicle used at most once. *)

val of_path : Demand_map.t -> t
(** Bridge: a 1-D demand map as a unit-weight path graph (equivalence
    testing against the grid implementation). *)

val of_grid_2d : Demand_map.t -> pad:int -> t
(** Bridge: a 2-D demand map as a unit-weight grid graph over its
    bounding box dilated by [pad]. *)

val line_graph : int -> Digraph.t
(** Unit-weight path on [n] vertices. *)

val random_geometric :
  rng:Rng.t -> n:int -> box:Box.t -> radius:int -> Digraph.t * Point.t array
(** [n] random points in [box]; vertices within L1 distance [radius] are
    joined by an edge weighted with their distance.  Returns the graph
    and the embedding (benchmark substrate for E14). *)

val graph_of : t -> Digraph.t
(** The underlying digraph (shared, do not mutate). *)
