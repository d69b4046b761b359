(** Parametric max-flow in the Gallo–Grigoriadis–Tarjan mold.

    A driver for flow networks whose source-adjacent edges all carry one
    integer parameter [u] as their capacity.  The max-flow/min-cut value
    [F u] is then concave, piecewise linear and non-decreasing in [u]; the
    slope of the piece at [u] is the number of source edges crossing the
    minimum cut.  Because the sweep over [u] is monotone and the
    {!Maxflow} arena keeps its flow between probes, the sweep costs
    roughly {e one} flow computation: each probe augments only the delta
    opened by its capacity raise, and the discrete-Newton jump rule
    touches at most one level per distinct cut slope.

    This is the engine behind [Transport.min_uniform_supply]: the supply
    search asks for the minimal [u] with [F u = target], where [u] counts
    steps of the transport's fixed LP grid, and the oracle's radius scan
    re-asks after growing the network — which {!grow} turns into a warm
    re-sweep instead of a recomputation. *)

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
    source-edge capacities.  [target] is the flow value that counts as
    feasible (in the transport reduction: total scaled demand). *)

val target : t -> int

val solve : t -> int option
(** The minimal integer level [u] with [F u = target], or [None] when no
    finite level reaches the target (a cut of slope 0 and constant
    capacity below [target] exists).  The first call runs the monotone
    sweep; later calls return the cached answer.  After {!grow}, the next
    call re-normalizes the retained flow with a drain and re-sweeps. *)

val solved : t -> bool
(** Whether {!solve} has already run since creation or the last {!grow} —
    i.e. whether the next {!solve} is a pure lookup. *)

val grow : t -> src_edges:int array -> unit
(** Replace the parametric edge set after the caller added vertices,
    suppliers or links to the same arena ([src_edges] is the {e full} new
    id set).  The routed flow and the answer-so-far are kept in the arena;
    the cached answer is dropped, and the next {!solve} extends the old
    flow instead of starting over. *)

val retarget : t -> target:int -> unit
(** Change the feasibility target after the caller patched the demand
    side of the arena.  The routed flow and sweep level are kept; the
    cached answer is dropped, so the next {!solve} re-sweeps warm from
    wherever the last one stopped. *)

val patch_sink_cap : t -> int -> int -> unit
(** [patch_sink_cap t edge c] sets the capacity of the (even,
    sink-adjacent, non-parametric) [edge] to [c] in place.  Raising keeps
    the routed flow; lowering below the edge's current flow cancels the
    surplus along the flow decomposition ({!Maxflow.drain_sink_caps}).
    Invalidate-only for the cached answer: it is dropped, the retained
    flow and sweep level survive.  This is the streamed-demand delta path
    of [Transport.set_demand]. *)
