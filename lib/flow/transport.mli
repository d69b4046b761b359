(** Bipartite supply–demand transport: the combinatorial form of the
    paper's linear program (2.1).

    An instance has [n_suppliers] supply sites, [n_demands] demand sites
    with integer demands, and a set of admissible links (in the paper: the
    pairs [(i,j)] with [‖i−j‖ ≤ r]).  Feasibility with per-supplier
    capacity [ω] is a max-flow question; by LP duality the minimal uniform
    real capacity equals [max_J Σ_{j∈J} d(j) / |N(J)|] over demand subsets
    [J] (Lemma 2.2.2 of the paper).  [min_uniform_supply] resolves it on a
    fixed grid, private to this module, with one parametric max-flow sweep
    on a scaled integer network ({!Paramflow}), cached so repeated queries
    and the oracle's growing radius scan become lookups and extensions. *)

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
    the surplus flow ({!Maxflow.drain_sink_caps}) — never a rebuild.
    @raise Energy.Overflow if the total demand would not fit in an
    [int]; the instance is then unchanged. *)

val demand : t -> int -> int

val add_link : t -> supplier:int -> demand:int -> unit
(** Declares that the supplier may serve the demand site.  Duplicate links
    are harmless.  Links are stored in one growable flat int array — no
    per-link allocation. *)

val n_links : t -> int

val iter_links : t -> (supplier:int -> demand:int -> unit) -> unit
(** Iterates links in insertion order. *)

val total_demand : t -> int
(** The sum of all demands, kept up to date by {!set_demand}. *)

val max_served : t -> supply:(int -> int) -> int
(** Maximum total demand servable when supplier [i] can emit at most
    [supply i] units. *)

val min_uniform_supply : t -> float option
(** The least multiple of [1/lcm(1..14)] at or above the optimum
    [max_J D(J)/|N(J)|]: the minimal uniform per-supplier capacity on that
    fixed grid.  Exact whenever the optimal [|N(J)|] divides [lcm(1..14)]
    (so always when it is at most 14); otherwise rounded up by less than
    one grid step: the exact ratio is open work on the ROADMAP.  [None]
    when no finite capacity suffices (some positive demand has no link).
    [Some 0.] immediately — no arena, no probe — when the total demand is
    zero, links or not.

    Internally a cached {!Paramflow} driver on one {!Maxflow} arena
    serves every query: the first call runs the monotone parametric
    sweep (cost ≈ one push-relabel flow, counted as one
    [transport.feasibility_checks]); repeated calls return the cached
    answer ([transport.breakpoint_lookups]); and after
    [add_supplier]/[add_link] growth — the oracle's radius scan — the
    next call re-normalizes the retained flow and re-sweeps warm instead
    of starting over.  Changing a demand ([set_demand]/[add_demand])
    invalidates the cached answer but {e not} the arena: the affected
    sink edges are patched in place and the next call re-sweeps warm
    from the retained flow.  The value is bit-identical to the
    discrete-Newton search it replaces: both land on the unique minimal
    feasible grid level. *)

val binding_demands : t -> int list
(** The positive-demand sites, in index order, outside the cut whose
    bound set the last {!min_uniform_supply} answer
    ({!Paramflow.binding_side}); no max-flow runs.  They form a non-empty
    tight set [J] of Lemma 2.2.2: [D(J)/|N(J)|] rounds up to the answer
    on the LP grid, and equals it when [|N(J)|] divides [lcm(1..14)].
    @raise Invalid_argument unless {!min_uniform_supply} answered a
    positive value and the instance has not changed since. *)

val self_served_binding : int array -> int list
(** [self_served_binding d] is what {!binding_demands} returns after
    {!min_uniform_supply} on the instance with demands [d] in which
    demand [j] has a supplier of its own and no other link (the
    oracle's radius 0), computed without a flow: there the parametric
    sweep's levels and cuts are arithmetic on the sorted demand values.
    @raise Invalid_argument if every demand is 0.
    @raise Energy.Overflow if a scaled demand does not fit in an [int]. *)
