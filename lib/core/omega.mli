(** The characteristic quantity [ω_T] of the paper (equation 1.1) and its
    maximizations.

    For a finite [T ⊆ Z^l] with total demand [D(T) = Σ_{x∈T} d(x)], the
    paper defines [ω_T] as the solution of [ω_T · |N_{ω_T}(T)| = D(T)].
    Lattice distances are integers, so [|N_ω(T)|] is a step function of
    [⌊ω⌋] and the equation can jump over [D(T)]; we therefore use

      [ω_T = inf (ω : ω · |N_{⌊ω⌋}(T)| >= D(T))],

    which coincides with the paper's value whenever the equation has an
    exact solution and is within the same constant factor everywhere
    (DESIGN.md §2).

    Theorem 1.4.1: [Woff = Θ(max_T ω_T)].  Corollary 2.2.6 restricts the
    maximization to cubes at constant-factor cost, and Corollary 2.2.7
    turns the heaviest cube of each side into the fixpoint [ωc]
    ({!cube_fixpoint_with_side}). *)

val scan_brackets : (int -> float) -> float
(** The integer bracket scan behind every [ω*] in the library.  An [ω] in
    the bracket [\[m, m+1)] has radius [m], so if [f m] is the least
    capacity that suffices at radius [m], the bracket's candidate is
    [max m (f m)], admissible when below [m + 1].  [scan_brackets f]
    calls [f 0], [f 1], ... in that order, exactly once each, and returns
    the first admissible candidate.  [f] may keep running state between
    calls.  Loops forever unless some candidate is admissible. *)

val solve : neighborhood_size:(int -> int) -> total:int -> float
(** [solve ~neighborhood_size ~total] returns
    [inf (ω : ω · neighborhood_size ⌊ω⌋ >= total)] for a non-decreasing,
    strictly positive [neighborhood_size].  0 when [total = 0]. *)

val of_points : Point.t list -> total:int -> float
(** [ω_T] for an explicit finite set [T] carrying total demand [total];
    duplicate points count once.  When [T] fills its bounding box
    ({!Box.hull}) every [|N_r(T)|] is the closed form
    {!Ball.box_ball_volume}; otherwise one {!Ball.frontier} over [T]
    grows a shell per radius the scan asks for, so the whole scan costs
    one BFS out to the answer's radius.  Raises [Invalid_argument] on an
    empty set. *)

val of_cube : dim:int -> side:int -> total:int -> float
(** [ω_T] for a [side]-cube of [Z^dim] via the closed-form
    [|N_r(cube)|]. *)

val max_cube_demand : Demand_map.t -> side:int -> int
(** Largest total demand inside any axis-aligned [side]-cube.  Some
    heaviest cube has every lower face on a support coordinate, so the
    anchors are the product of each axis's distinct support coordinates,
    and one window-sum pass per axis over them gives every anchored
    cube's demand: the cost follows the support, never its bounding
    box.  [max_cube_demand dm] builds that anchor grid once, so a caller
    that scans many sides applies it to [dm] first.  Shared by
    {!cube_fixpoint_with_side} and by the Theorem 5.1.1 lower bound in
    the transfer library.  Raises [Invalid_argument] when [side <= 0]. *)

val cube_fixpoint_with_side : Demand_map.t -> float * int
(** The [ωc] of Corollary 2.2.7,
    [min (ω : ω·(3⌈ω⌉)^l >= max demand in any ⌈ω⌉-cube)], computed by
    scanning integer cube sides over one anchor grid (see
    {!max_cube_demand}), together with the side [s = ⌈ωc⌉] achieving it:
    [s - 1 <= ωc <= s], every side-[s] cube carries at most [ωc·(3s)^l]
    demand, and [Woff <= (2·3^l + l)·ωc].  The side is what the offline
    planner and the online strategy partition by.  [(0.0, 1)] for empty
    demand. *)

(** Closed-form capacities of the worked examples of §2.1 (Figure 2.1);
    each solves its cubic by bisection to [1e-9] relative accuracy. *)

val example_square_w1 : a:int -> d:int -> float
(** [W1] with [W1·(2·W1 + a)^2 = d·a^2] — Example 2.1.1. *)

val example_line_w2 : d:int -> float
(** [W2] with [W2·(2·W2 + 1) = d] — Example 2.1.2. *)

val example_point_w3 : d:int -> float
(** [W3] with [W3·(2·W3 + 1)^2 = d] — Example 2.1.3. *)
