(** Max-flow solver for the paper's transportation programs (2.1) and
    (2.8).

    Program (2.1) fixes a transport radius [r] and asks for the minimal
    uniform vehicle capacity [ω] such that flows [f_ij] with [‖i−j‖ <= r]
    cover all demands; Lemma 2.2.2 identifies its value with
    [max_T Σ_{x∈T} d(x) / |N_r(T)|].  Program (2.8) couples the radius to
    the capacity ([r = ω]) and its value is [ω* = max_T ω_T]
    (Lemma 2.2.3), the paper's lower bound on [Woff] (Corollary 2.2.4).

    Instead of a numeric LP solver (unavailable offline) we use the
    combinatorial equivalent: for fixed radius, feasibility at capacity [ω]
    is a bipartite max-flow check, and the minimal capacity is read off one
    parametric max-flow sweep over [ω] ({!Transport.min_uniform_supply},
    driven by {!Paramflow}).  Suppliers are the grid vertices within
    distance [r] of the demand support — the only vehicles that can
    participate.

    Every value here is resolved on the fixed LP grid of {!Transport}: the
    least multiple of [1/lcm(1..14)] at or above the LP optimum.  That is
    exact when the optimal [|N_r(T)|] divides [lcm(1..14)] (in particular
    when it is at most 14), and otherwise an upper bound by less than one
    grid step: the exact ratio is open work on the ROADMAP. *)

val lp_value : radius:int -> Demand_map.t -> float
(** Value of program (2.1) at the given integer radius, on the LP grid.
    0 for empty demand. *)

val omega_star : Demand_map.t -> float
(** Value of program (2.8): the minimal [ω] such that the radius-[⌊ω⌋]
    transport is feasible at capacity [ω] — the paper's
    [ω* = max_T ω_T].  Scans integer radius brackets with
    {!Omega.scan_brackets}, as {!Omega.solve} does.  Bracket 0 is not
    solved: program (2.1) at radius 0 has the value [max_x d(x)]
    (Lemma 2.2.2 with [N_0(T) = T]), at least 1, so it never holds
    [ω*].  The scan solves brackets [1 .. ⌊ω*⌋] on one instance grown
    radius by radius, and [oracle.radius_brackets] rises by [⌊ω*⌋]. *)

val witness : Demand_map.t -> (Point.t list * float) option
(** A tight set for program (2.8): demand positions [T] together with
    [ω_T], computed exactly by {!Omega.of_points}.  The bracket scan is
    {!omega_star}'s own, run once: [T] is read off the cut that set the
    binding bracket's LP value ({!Transport.binding_demands}) — bracket
    [m] when [ω*] lies strictly inside [\[m, m+1)], bracket [m − 1] when
    [ω* = m].  For [ω* = 1] that is bracket 0, which the scan does not
    solve: at radius 0 each site is its own only supplier, and the
    witness reads that bracket's binding cut off the demand values
    ({!Transport.self_served_binding}), with no max-flow run beyond the
    scan's.  [ω_T] equals
    [ω*] whenever the grid resolves the optimum, and otherwise lies less
    than one grid step below it.  [None] only for empty demand.  This is
    the certificate the duality proof of Lemma 2.2.3 promises. *)

val scan : Transport.t -> grow:(int -> unit) -> float
(** {!omega_star}'s bracket scan on a metric's own instance of program
    (2.1): demand sites of positive total, and [grow m], called for
    [m = 1, 2, ...] in order, extending the suppliers and links to
    radius [m].  Bracket 0 is not solved, so every distance between two
    sites must be positive.  [Gcmvrp.omega_star] runs it on a graph. *)

val tight_set : Transport.t -> grow:(int -> unit) -> int list
(** {!scan}, then the demand sites of the tight set {!witness} reads. *)

(** Streaming oracle sessions: jobs arrive and retire one at a time and
    [ω*] is maintained incrementally instead of recomputed from scratch.

    A session keeps one persistent transport instance per integer radius
    bracket [m >= 1] the ω* scan has ever visited; bracket 0 is never
    solved, as in {!omega_star}.  A single-job delta costs a
    sink-capacity patch per bracket on the cached parametric arena
    (plus, for a never-seen position, one ball absorption and sphere
    enumeration), and the next {!Session.omega_star} re-runs the bracket
    scan as warm {!Paramflow} re-sweeps of the retained flow — a handful
    of max-flow probes, never an arena rebuild.  Values are bit-identical
    to {!omega_star} on the same demand at every step (see
    [docs/STREAMING.md] for the invalidation rules and cost model). *)
module Session : sig
  type t

  val create : Demand_map.t -> t
  (** A session seeded with an initial demand (often
      [Demand_map.empty l]).  Bracket instances are built lazily at the
      first query. *)

  val add_job : t -> Point.t -> unit
  (** One unit job arrives at the point.  O(1) sink-cap patch per live
      bracket; a never-seen position additionally absorbs its supplier
      ball into each bracket's frontier.
      @raise Invalid_argument on dimension mismatch. *)

  val remove_job : t -> Point.t -> unit
  (** One unit job at the point retires.  The surplus flow is cancelled
      in place at the next query ({!Maxflow.drain_sink_caps}); the
      arena, suppliers and links are all retained.
      @raise Invalid_argument when no job lives at the point. *)

  val omega_star : t -> float
  (** The current [ω*]; cached between mutations, recomputed
      incrementally when dirty.  Bit-identical to
      [Oracle.omega_star (demand t)]. *)

  val demand : t -> Demand_map.t
  (** The live demand snapshot (immutable). *)
end
