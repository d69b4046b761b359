(** Chapter 4: broken vehicles.

    Every vehicle [i] carries a longevity parameter [p_i ∈ [0,1]] and
    breaks down once a fraction [p_i] of its initial energy [W] has been
    spent — so only [p_i·W] of its tank is usable, and it can transport
    energy only within radius [p_i·W].

    Theorem 4.1.1 adapts the transportation program: the minimal capacity
    admits the lower bound [max_T ω_T] where [ω_T] solves
    [ω·Σ_{i ∈ N_{p_i·ω}(T)} p_i = Σ_{i∈T} d(i)].  Section 4.2 then shows
    this bound is NOT tight: in the Figure 4.1 instance the bound is
    [2·r1] while any actual service schedule needs [Θ(r1^2)], because the
    single surviving vehicle must shuttle between the two alternating
    demand points.  This module provides both sides of that gap. *)

type longevity = Point.t -> float
(** [p_i] as a function of the vehicle's depot; values clamped to
    [\[0,1\]] by the solvers. *)

val lp_lower_bound :
  ?precision:float -> ?search_radius:int ->
  longevity:longevity -> Demand_map.t -> float
(** Value of program (4.1): the minimal uniform capacity [ω] at which the
    longevity-scaled transport (supplier [i] emits at most [p_i·ω], within
    radius [⌊p_i·ω⌋]) covers all demands.  Monotone feasibility is checked
    by max-flow with each [p_i·ω] rounded down to a multiple of 1/1000;
    [ω] is located by binary search to [precision] (default 1e-3).
    Candidate suppliers are sought within [search_radius]
    (default 512) of the demand support; [infinity] means "not feasible
    with those suppliers" (e.g. every nearby vehicle dead). *)

(** The Figure 4.1 adversarial instance. *)
module Figure41 : sig
  type t = {
    r1 : int;  (** half-distance between the demand points [i] and [j] *)
    r2 : int;  (** clearance between the demands and the healthy region *)
  }

  val make : r1:int -> r2:int -> t
  (** Requires [r1 >= 1] and [r2 > 4 * r1 * r1] so that healthy outside
      vehicles provably cannot help at the capacities in play. *)

  val demand : t -> Demand_map.t
  (** [d(i) = d(j) = r1] at [(±r1, 0)], zero elsewhere. *)

  val longevity : t -> longevity
  (** [p = 0] inside the dead circle except [p = 1] at the center [k] and
      everywhere outside. *)

  val lp_bound : t -> float
  (** The program-(4.1) bound — equals [2·r1] (Section 4.2). *)

  val shuttle_requirement : t -> int
  (** Exact energy the surviving vehicle [k] spends serving the
      alternating sequence: the initial walk to the first demand point,
      [2·r1] unit services, and [2·r1 - 1] crossings of length [2·r1] —
      i.e. [r1 + 2·r1 + (2·r1 - 1)·2·r1 = Θ(r1^2)]. *)

  val jobs : t -> Point.t array
  (** The alternating arrival sequence [i, j, i, j, ...] of §4.2. *)

  val simulate_shuttle : t -> capacity:float -> bool
  (** Replays the forced shuttle schedule and reports whether capacity
      suffices (true iff [capacity >= shuttle_requirement]). *)
end
