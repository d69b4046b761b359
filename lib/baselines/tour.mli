(** Travelling-salesman route construction on grid points (L1 metric) —
    the primitive under the classical central-depot CVRP heuristics the
    thesis reviews in §1.1. *)

val cycle_length : Point.t list -> int
(** Closed-tour length: the sum of consecutive L1 distances plus the leg
    back to the start.  0 for fewer than two points. *)
