(** Bipartite supply–demand transport: the combinatorial form of the
    paper's linear program (2.1).

    An instance has [n_suppliers] supply sites, [n_demands] demand sites
    with integer demands, and a set of admissible links (in the paper: the
    pairs [(i,j)] with [‖i−j‖ ≤ r]).  Feasibility with per-supplier
    capacity [ω] is a max-flow question; by LP duality the minimal uniform
    real capacity equals [max_J Σ_{j∈J} d(j) / |N(J)|] over demand subsets
    [J] (Lemma 2.2.2 of the paper).  [min_uniform_supply] computes it to
    any requested resolution with one parametric max-flow sweep on a
    scaled integer network ({!Paramflow}), cached so repeated queries and
    the oracle's growing radius scan become lookups and extensions. *)

type t

val create : n_suppliers:int -> n_demands:int -> t

val n_suppliers : t -> int
val n_demands : t -> int

val add_supplier : t -> int
(** Registers one more supply site and returns its index.  Incremental
    instance builders (the oracle's radius scan) grow the supplier set as
    the coverage radius dilates. *)

val add_demand : t -> int
(** Registers one more demand site (initial demand 0, no links) and
    returns its index.  Streaming instance builders ([Oracle.Session])
    grow the demand side as new job positions appear; the cached
    parametric arena appends a vertex and a capacity-0 sink edge in
    place. *)

val set_demand : t -> int -> int -> unit
(** [set_demand t j d] with [d >= 0]; demands default to 0.  On the
    cached parametric arena this is a single sink-edge capacity patch at
    the next query — a raise keeps the routed flow, a lowering cancels
    the surplus flow ({!Maxflow.drain_sink_caps}) — never a rebuild. *)

val demand : t -> int -> int

val add_link : t -> supplier:int -> demand:int -> unit
(** Declares that the supplier may serve the demand site.  Duplicate links
    are harmless.  Links are stored in one growable flat int array — no
    per-link allocation. *)

val n_links : t -> int

val iter_links : t -> (supplier:int -> demand:int -> unit) -> unit
(** Iterates links in insertion order. *)

val total_demand : t -> int

val max_served : t -> supply:(int -> int) -> int
(** Maximum total demand servable when supplier [i] can emit at most
    [supply i] units. *)

val feasible : t -> supply:(int -> int) -> bool
(** [max_served = total_demand]. *)

val min_uniform_supply : t -> scale:int -> float option
(** Smallest [ω], a multiple of [1/scale], such that uniform per-supplier
    capacity [ω] is feasible.  [None] when no finite capacity suffices
    (some positive demand has no link).  [Some 0.] immediately — no arena,
    no probe — when the total demand is zero, links or not.  Exact
    whenever the true optimum [max_J D(J)/|N(J)|] has a denominator
    dividing [scale].

    Internally a cached {!Paramflow} driver on one {!Maxflow} arena
    serves every query at the same [scale]: the first call runs the
    monotone parametric sweep (cost ≈ one push-relabel flow, counted as
    one [transport.feasibility_checks]); repeated calls are pure lookups
    ([transport.breakpoint_lookups]); and after [add_supplier]/[add_link]
    growth — the oracle's radius scan — the next call re-normalizes the
    retained flow and extends the family instead of starting over.
    Changing a demand ([set_demand]/[add_demand]) invalidates the cached
    answer but {e not} the arena: the affected sink edges are patched in
    place and the next call re-sweeps warm from the retained flow.  The
    value is bit-identical to the discrete-Newton search it replaces:
    both land on the unique minimal feasible grid level. *)

val breakpoints : t -> scale:int -> (int * int * int) array
(** The integer lower envelope of the parametric min-cut function for
    this instance at this [scale], as [(level, value, slope)] triples
    sorted by level — levels strictly increasing, slopes non-increasing.
    Runs (or reuses) the cached sweep, then refines the family to every
    breakpoint distinguishable at integer levels.  [[||]] when the total
    demand is zero. *)

val infeasibility_witness : t -> supply:(int -> int) -> int list option
(** When the instance is infeasible at the given supplies, returns a
    Hall-type violating set of demand indices [J] with
    [Σ_{j∈J} d(j) > Σ_{i∈N(J)} supply i], extracted from a minimum cut
    (demand vertices on the sink side).  [None] when feasible. *)
