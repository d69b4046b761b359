(** Maximum flow on integer capacities, by push-relabel.

    This is the combinatorial engine behind the paper's linear program
    (2.1): for a fixed supply [ω] and radius [r], feasibility of the
    supply-demand transport is a bipartite max-flow question, and the LP
    value is found by a search over [ω] on a fixed grid of multiples of
    [1/lcm(1..14)] (see {!Transport} and {!Paramflow}).

    The network is an {e arena}: one allocation serves a whole family of
    related flow problems.  After a [max_flow] run the residual state is
    kept, and {!set_even_caps} / {!drain_even_caps} can raise or lower edge
    capacities while preserving as much routed flow as the new capacities
    admit, so a parameter sweep (the supply search in
    [Transport.min_uniform_supply]) re-augments incrementally instead of
    rebuilding.

    The engine is push-relabel with highest-label selection, the gap
    heuristic and periodic global relabeling.  A run first labels every
    vertex with its exact residual distance, then saturates only the
    residual source arcs whose head can reach the sink, so a warm
    restart floods just the head-room that can lead somewhere.  It
    leaves a valid maximum {e flow} (not a preflow), so {!flow_on}, warm
    restarts and cut extraction read a real flow.

    Allocation: the arena owns every scratch array its algorithms use.
    {!create} allocates, {!reserve} allocates when an array must grow,
    {!add_vertex} and {!add_edge} when an array doubles, and so does the
    first {!max_flow}, drain or cut call after new edges when the
    adjacency index outgrew its array.
    Otherwise {!set_even_caps}, both drains, {!min_cut_into}, {!capacity}
    and {!cut_capacity} allocate nothing, and {!max_flow} only the few
    words that publishing its metrics takes. *)

type t

val create : int -> t
(** [create n] is an empty flow network on vertices [0 .. n-1]. *)

val add_vertex : t -> int
(** Appends one vertex and returns its index.  Existing edges and flow
    are unaffected.  Incremental instance builders (the oracle's
    radius scan) grow the network as the coverage radius dilates. *)

val reserve : t -> vertices:int -> edges:int -> unit
(** [reserve t ~vertices ~edges] grows the arena's arrays, in one step
    each, to hold [vertices] vertices and [edges] edges (twins not
    counted) in all, so that appending up to that size allocates
    nothing.  Vertices and edges are unchanged; it never shrinks.  The
    growth path of {!add_vertex} and {!add_edge}, which double an array
    that runs out. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Adds a directed edge with the given capacity (and its residual twin of
    capacity 0).  Returns an edge id usable with {!flow_on}.  Capacities
    must be non-negative. *)

val edge_dst : t -> int -> int
(** Destination vertex of the edge with the given id (twins included: the
    destination of [id lxor 1] is the source of [id]). *)

val max_flow : t -> source:int -> sink:int -> int
(** Runs push-relabel to completion and returns the flow value
    {e pushed by this call}.  The network keeps its residual state: after
    raising capacities with {!set_even_caps}, a subsequent call continues
    from the current flow and returns only the increment.  The run starts
    with one global relabel of the current residual network and then
    saturates the residual arcs out of [source] whose head can reach
    [sink]; the others stay residual and carry the flow they had.  Which
    maximum flow it leaves may depend on that order; the minimal minimum
    cut ({!min_cut_into}) does not. *)

val flow_on : t -> int -> int
(** Flow currently routed through the edge with the given id. *)

val set_even_caps : t -> int array -> int -> unit
(** [set_even_caps t ids c] sets the capacity of each (even) edge id in
    [ids] to [c], preserving the flow currently routed through it — the
    new residual is [c - flow].  Raises [Invalid_argument] if any edge
    carries more than [c] flow (lower below current flow with
    {!drain_even_caps}). *)

val drain_even_caps : t -> int array -> int -> source:int -> sink:int -> int
(** [drain_even_caps t ids c ~source ~sink] sets the capacity of each
    (even) edge id in [ids] to [c] like {!set_even_caps}, but edges
    carrying more than [c] flow have the surplus cancelled first, by
    walking the flow decomposition from the edge head to [sink] (lowering
    the flow value) or back to [source] (cancelling a cycle, value
    unchanged).  Every edge in [ids] must have [source] as its tail —
    for an interior tail the cancellation would not stay conservative.
    Returns the total amount of sink-terminated cancellation, i.e. how
    much the flow value decreased.  The terminal state is again a valid
    flow.  Intended for parametric sweeps that move the parameter {e
    down} (see {!Paramflow}). *)

val drain_sink_caps : t -> int array -> int -> source:int -> sink:int -> int
(** Mirror image of {!drain_even_caps} for sink-adjacent edges: every
    edge in [ids] must have [sink] as its head.  Surplus flow is
    cancelled by walking the flow decomposition backward from the edge
    tail — reaching [source] cancels a full source→sink path (the flow
    value drops), reaching [sink] cancels a cycle through the edge
    (value unchanged).  Returns how much the flow value decreased.  The
    terminal state is again a valid flow.  Intended for lowering a
    demand's sink capacity in place when a streamed job retires (see
    {!Paramflow} and [Transport]). *)

val n_vertices : t -> int

val version : t -> int
(** A counter that every call changing the arena's edges, vertices or
    capacities bumps: {!add_vertex}, {!add_edge}, {!set_even_caps} and
    both drains.  {!max_flow} moves flow only and leaves it.  A caller
    that keeps numbers derived from the capacities ({!Paramflow}'s cut
    constants) compares it to tell whether they are still current. *)

val min_cut_into : t -> source:int -> bool array -> unit
(** After [max_flow], [min_cut_into t ~source side] writes the source side
    of a minimum cut (the vertices reachable in the residual network) into
    [side.(0 .. n-1)] and leaves the rest of [side] untouched.  This is
    the unique {e minimal} source side, identical for every maximum flow
    — so any other max-flow solver yields the same set, which the
    differential tests rely on.  Raises [Invalid_argument] if [side] is
    shorter than {!n_vertices}. *)

val capacity : t -> int -> int
(** The capacity most recently set on an even edge id (at {!add_edge},
    {!set_even_caps} or a drain), not its residual. *)

val cut_capacity : t -> bool array -> int
(** [cut_capacity t side] sums {!capacity} over the edges from a vertex
    with [side.(v)] to one without it; vertices at or past
    [Array.length side] count as outside.  When [side] holds the source
    and not the sink, this bounds the value of every flow on the current
    capacities (weak duality), whatever flow is routed now. *)
