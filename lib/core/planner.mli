(** Constructive offline strategy — the upper-bound half of Theorem 1.4.1
    (Lemma 2.2.5 / Corollary 2.2.7).

    Given the demand, compute [ωc] and its cube side [s], partition the
    grid into [s]-cubes, and let every vehicle (one per vertex) first serve
    up to a budget [B = ⌈3^l·ωc⌉] at its own vertex, then optionally
    relocate — within its own cube only — to one overloaded vertex and
    serve up to another [B] units there.  Corollary 2.2.7 guarantees the
    per-cube headcount suffices, and the resulting per-vehicle energy is at
    most [2B + l·(s-1) <= (2·3^l + l)·ωc + 2].

    The plan is an explicit, auditable object: {!validate} replays it and
    checks full service, cube confinement and the energy bound, and
    {!max_energy} is the measured upper bound on [Woff] reported by the
    benchmarks. *)

type assignment = {
  home : Point.t;  (** the vehicle's depot *)
  serve_at_home : int;  (** units served before moving *)
  target : (Point.t * int) option;
      (** relocation destination and units served there *)
}

type t = {
  dim : int;
  omega : float;  (** the [ωc] the plan was built for *)
  side : int;  (** cube side [s = ⌈ωc⌉] *)
  budget : int;  (** per-chunk service budget [B] *)
  window : Box.t;  (** vehicle window, tiled exactly by [s]-cubes *)
  assignments : assignment list;
      (** vehicles with nonzero work; all other vehicles idle *)
}

val plan : Demand_map.t -> t
(** Builds the constructive plan.  Raises [Failure] only if the internal
    headcount guarantee is violated (which would falsify Corollary 2.2.7 —
    exercised as a property test). *)

val max_energy : t -> int
(** Peak per-vehicle energy of the plan: the measured [Woff] upper
    bound.  0 for an empty plan. *)

val energy_bound : t -> float
(** The proven cap [2B + l·(s-1)] for this plan's parameters. *)

val theorem_bound : dim:int -> float -> float
(** [(2·3^l + l)·ω], the Theorem 1.4.1 upper-bound expression. *)

val validate : t -> Demand_map.t -> (unit, string) result
(** Replays the plan: every unit of demand served exactly, every vehicle
    confined to its cube, every vehicle within {!energy_bound}. *)
