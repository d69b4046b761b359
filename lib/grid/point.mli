(** Points of the integer lattice [Z^l].

    The thesis places one depot, one vehicle and one (potential) customer at
    every vertex of [Z^l] and measures all travel in the Manhattan (L1)
    metric — see §1.3 of the paper.  A point is an [int array] of length
    [l]; the dimension is carried implicitly and must agree between
    arguments. *)

type t = int array

val dim : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic order; total, used for sorted containers. *)

val hash : t -> int

val l1_dist : t -> t -> int
(** Manhattan distance [‖x - y‖_1], the travel cost of the paper. *)

val add : t -> t -> t

val origin : int -> t
(** [origin l] is the zero point of [Z^l]. *)

val neighbors : t -> t list
(** The [2l] lattice neighbors at L1 distance exactly 1 — the moves a
    vehicle can make for 1 unit of energy. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x1,x2,...)]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
