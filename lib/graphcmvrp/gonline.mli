(** The Chapter 3 online strategy on general weighted graphs — the
    distributed half of the Chapter 6 open direction.

    {!Online} runs one protocol over any {!Online.topology}; this module
    is its graph producer.  Only the cube partition and the chessboard
    pairing are grid-specific, and here:

    - clusters come from {!Gcmvrp.cover}, the greedy ball cover of
      {!Gcmvrp.plan_greedy} (radius [⌈ω*⌉] around heavy vertices); an
      unclustered vertex joins the cluster of its nearest clustered
      vertex, and one with none in reach forms a cluster of its own;
    - pairs come from a greedy maximal matching in vertex order, each
      vertex taking its first unmatched neighbour of its cluster; a
      vertex left alone serves alone.  A pair's walk is its edge weight
      (0 alone), so an active vehicle retires below edge weight + 1;
    - pair ids run cluster by cluster, so each cluster is one monitoring
      ring;
    - the communication graph is the graph's arcs inside a cluster
      (adjacent vehicles are neighbours — the analog of the paper's
      constant-radius rule);
    - travel costs are shortest-path distances, and vertex [v] is named
      [[| v |]] in events and failures.

    Everything else — the reliable envelope, the Dijkstra–Scholten
    diffusing computation, phase II relocation with its energy check, the
    heartbeats and the deadline ring — is the protocol the grid runs.
    The measured minimal capacity against the graph [ω*] (experiment
    E17) probes whether [Won = Θ(Woff)] should be expected beyond the
    grid. *)

val topology : Gcmvrp.t -> Online.topology
(** The graph's topology as described above. *)

val run :
  ?seed:int -> Gcmvrp.t -> jobs:int array -> capacity:float -> Online.outcome
(** Serves the arrival sequence of vertex ids, every vehicle starting with
    [capacity], over {!Online.run_topology} with its default protocol
    settings (reliable channels, retries on).  Raises [Invalid_argument]
    on a job that is not a vertex id or a non-positive capacity. *)

val recommended_capacity : Gcmvrp.t -> float
(** [(4·3^2 + 2)·ω*] plus rounding cushion — the grid Lemma 3.3.1 constant
    reused as a (non-proven) graph heuristic; E17 measures how much of it
    is really needed. *)

val min_feasible_capacity :
  ?tol:float -> ?seed:int -> Gcmvrp.t -> jobs:int array -> float
(** Smallest capacity (within [tol], default 0.25) at which the strategy
    serves every job.  Builds the topology once for every probe. *)
