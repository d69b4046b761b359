(** Parametric max-flow in the Gallo–Grigoriadis–Tarjan mold.

    A driver for flow networks whose {e parametric} source-adjacent edges
    all carry one integer parameter [u] as their capacity; any other
    edge, a fixed-capacity source edge included, keeps the capacity the
    caller gave it.  The max-flow/min-cut value [F u] is then concave,
    piecewise linear and non-decreasing in [u]; the slope of the piece at
    [u] is the number of parametric edges crossing the minimum cut.
    Because the sweep over [u] is monotone and the {!Maxflow} arena keeps
    its flow between probes, the sweep costs roughly {e one} flow
    computation: each probe augments only the delta opened by its
    capacity raise, and the discrete-Newton jump rule touches at most one
    level per distinct cut slope.

    Every s–t cut [C] of the arena bounds the answer from below: its
    capacity is [c_C + k_C·u], with [k_C] the parametric edges leaving
    [C] and [c_C] every other edge leaving it, and no flow exceeds it.
    The driver keeps the source side of the last cut a probe found below
    the target, and the two constants of that cut and of the trivial cut
    [{source}].  It reads a recorded cut's [c_C] off the maximum flow it
    came from (every edge leaving the cut is saturated there, so its
    capacity is the routed value), moves it by each {!patch_sink_cap}
    whose edge leaves the cut, and scans the arena for both cuts again
    only after {!grow} or when {!Maxflow.version} shows some other change
    (vertices added since a cut was recorded count as outside it).  So the bound survives
    every patch, retarget and growth, and a solve after a patch reads it
    without a pass over the arena.

    This is the engine behind [Transport.min_uniform_supply]: the supply
    search asks for the minimal [u] with [F u = target], where [u] counts
    steps of the transport's fixed LP grid; a streamed demand change is a
    sink-edge patch plus {!retarget}, and the oracle's radius scan
    re-asks after growing the network ({!grow}) — each a warm re-solve
    instead of a recomputation. *)

type t

val create :
  net:Maxflow.t ->
  source:int ->
  sink:int ->
  src_edges:int array ->
  target:int ->
  t
(** [create ~net ~source ~sink ~src_edges ~target] wraps an arena whose
    parametric (source-adjacent, even) edge ids are [src_edges].  The
    arena must carry no flow yet; the driver takes ownership of the
    parametric capacities.  [target] is the flow value that counts as
    feasible, and no level may route more (in the transport reduction:
    the total scaled demand, which is the sink-edge capacity). *)

val target : t -> int

val solve : t -> int option
(** The minimal integer level [u] with [F u = target], or [None] when no
    finite level reaches the target (a cut with no parametric edge and a
    capacity below [target] exists).  A later call without a change in
    between returns the cached answer.

    A solve starts at the larger of two cut bounds: the trivial cut
    [{source}] (⌈target/s⌉ for [s] parametric edges when every source
    edge is parametric) and the last cut a probe found below the target.
    If the retained flow already routes the target at the current
    uniform level and that bound reaches the level, the level is the
    answer and no max-flow runs (the {e certificate}: the flow bounds the
    answer from above, the cut from below).  Otherwise the sweep moves
    every parametric edge to the bound — a capacity update when it lies
    above a uniform level, a drain when it lies below or the level is
    mixed — and climbs by discrete Newton: each probe is one warm
    {!Maxflow.max_flow}; a probe that reaches the target ends the sweep,
    and one that does not records its minimal min cut, whose bound is the
    next level.  Newton from any start at or below the answer lands on
    the same minimal level, so the answer never depends on the warm
    state. *)

val binding_side : t -> bool array
(** The source side of the cut whose bound is the last answer: the
    trivial cut [{source}] or the last cut a probe recorded (no new
    scan).  Which one binds may depend on the warm state; its bound never
    does.  Vertices at or past the array's length count as outside.  The
    array belongs to [t] and is valid until the next {!solve}: do not
    write it.
    @raise Invalid_argument unless the last {!solve} answered [Some u]
    with [u > 0] and nothing changed since. *)

val solved : t -> bool
(** Whether {!solve} has already run since creation or the last change —
    i.e. whether the next {!solve} is a pure lookup. *)

val grow : t -> src_edges:int array -> unit
(** Replace the parametric edge set after the caller added vertices,
    suppliers or links to the same arena ([src_edges] is the {e full} new
    id set).  The routed flow and the recorded cut are kept; the cached
    answer is dropped, and the level counts as mixed (new parametric
    edges may sit below it), so the next {!solve} cannot use the
    certificate: it drains every parametric edge to its start bound and
    extends the old flow instead of starting over. *)

val retarget : t -> target:int -> unit
(** Change the feasibility target after the caller patched the demand
    side of the arena.  The routed flow, level and recorded cut are kept
    and the cached answer is dropped, so the next {!solve} starts from
    the cut bound on the new target — or answers the retained level
    outright when the certificate holds (a lowered target the flow still
    routes, with the cut bound unchanged). *)

val patch_sink_cap : t -> int -> int -> unit
(** [patch_sink_cap t edge c] sets the capacity of the (even,
    sink-adjacent, non-parametric) [edge] to [c] in place.  Raising keeps
    the routed flow; lowering below the edge's current flow cancels the
    surplus along the flow decomposition ({!Maxflow.drain_sink_caps}).
    Invalidate-only for the cached answer: it is dropped, the retained
    flow, level and recorded cut survive, and a kept cut that [edge]
    leaves has its constant moved by the change.  This is the
    streamed-demand delta path of [Transport.set_demand]. *)
