(** Shortest paths on {!Digraph}: one Dijkstra search, which settles
    vertices nearest first, stops at a radius and resumes from there.
    A negative edge raises [Invalid_argument]. *)

type search

val search : Digraph.t -> sources:int list -> search
(** A search from the sources that has settled nothing yet. *)

val settle : search -> radius:int -> (int -> unit) -> unit
(** Settles, nearest first, each vertex within [radius] of the sources
    that no earlier call settled, and calls the function on it. *)

val dijkstra : Digraph.t -> source:int -> int array
(** A search settled to the end: distances, [max_int] if unreachable. *)
