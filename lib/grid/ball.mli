(** L1 neighborhoods [N_r(T)] and their cardinalities.

    Equation (1.1) of the paper, [ω_T · |N_{ω_T}(T)| = Σ_{x∈T} d(x)],
    requires [|N_r(T)|] for arbitrary finite [T].  This module provides
    one implementation of each way to get it:

    - one closed form, {!box_ball_volume}, for any box — the single
      points, segments and [l]-cubes the paper analyses (Examples
      2.1.1–2.1.3 and Lemma 2.2.5) are boxes, and
    - one breadth-first search, the {!frontier}, for any finite set;
      {!dilate_set} and {!absorb} are built on it. *)

val binomial : int -> int -> int
(** [binomial n k] = C(n,k); 0 when [k < 0] or [k > n].  Overflow-checked:
    raises [Energy.Overflow] instead of silently wrapping.  Note the check
    applies to the multiplicative formula's intermediates
    [C(n,i)·(n-k+i)], which can overflow slightly before the result
    itself would. *)

val box_ball_volume : Box.t -> radius:int -> int
(** [|N_radius(B)|] for a box [B ⊆ Z^l]: [Σ_k P_k 2^k C(radius,k)],
    where [P_k] sums, over every choice of [k] axes, the product of the
    other axes' sides.  A point is a side-1 cube
    ([Σ_k 2^k C(l,k) C(radius,k)]), an [l]-cube of side [s] gives
    [Σ_k C(l,k) s^(l−k) 2^k C(radius,k)] (the quantity Corollary 2.2.7
    approximates by [(3⌈ω⌉)^l]), and the segment of Example 2.1.2 is a
    [1 × len] box ([(2r+1)·len + 2r^2]).  [radius < 0] yields 0. *)

(** {1 Breadth-first dilation}

    A {!frontier} is a paused multi-source BFS: it remembers everything
    reached so far and the current outermost shell, so growing the
    neighborhood from radius [r] to [r+1] costs only the new shell — the
    delta the oracle's radius scan needs, instead of re-dilating from
    scratch at every radius. *)

type frontier

val frontier : Point.t list -> frontier
(** A frontier at radius 0; its shell is the input set with duplicates
    removed (first occurrence kept, input order preserved). *)

val expand : frontier -> Point.t list
(** Advances the frontier one radius step and returns the new shell: the
    points at L1 distance exactly the new radius from the seed set, in
    BFS discovery order.  The shells up to radius [r], concatenated, are
    [N_r(T)] in the order a queue-based multi-source BFS discovers it. *)

val frontier_shell : frontier -> Point.t list
(** The current shell (radius 0: the deduplicated seed set). *)

val frontier_size : frontier -> int
(** Total points reached so far, [|N_radius(T)|]. *)

val dilate_set : Point.t list -> radius:int -> Point.Set.t
(** [N_radius(T)]: a frontier expanded [radius] times.  Exact for any
    finite [T]; cost is proportional to the volume of the result. *)

val absorb : frontier -> Point.t -> Point.t list
(** [absorb f p] adds [p] to the frontier's {e seed} set in place.  It
    grows a frontier of its own around [p] to [f]'s radius and returns,
    shell by shell in discovery order, the points [f] had not reached
    ([[]] when the ball around [p] was already covered): exactly a BFS
    around [p] with [f]'s points left out.  Those points become reached,
    and the ones on the last shell join [f]'s shell, so subsequent
    {!expand}s stay exact for the enlarged seed set.  The shell may
    retain entries whose exact distance dropped below the radius; they
    are harmless to {!expand} (their unreached neighbors are necessarily
    at the next radius).  This is the streaming counterpart of
    rebuilding the frontier when a job arrives at a new position
    ([Oracle.Session]). *)

val iter_sphere : center:Point.t -> radius:int -> (Point.t -> unit) -> unit
(** Enumerates the L1 sphere [{x : ‖x − center‖₁ = radius}] directly
    (no hashing, no BFS), calling the function once per point.  The point
    array passed to the callback is {e reused between calls} — copy it if
    it must be retained. *)
