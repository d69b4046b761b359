(** Compact directed graphs over integer vertices [0 .. n-1]: the
    weighted graphs of the graph-metric CMVRP ({!Gcmvrp}, {!Gonline}).
    Edges carry an integer weight, read as a distance. *)

type t

val create : int -> t
(** [create n] is an empty graph on [n] vertices. *)

val n_vertices : t -> int

val add_edge : t -> src:int -> dst:int -> weight:int -> unit

val add_undirected : t -> int -> int -> weight:int -> unit
(** Adds both directions with the same weight. *)

val succ : t -> int -> (int * int) list
(** [(dst, weight)] pairs leaving a vertex, in insertion order. *)

val iter_succ : t -> int -> (dst:int -> weight:int -> unit) -> unit
