(** Shortest paths on {!Digraph}. *)

val dijkstra : Digraph.t -> source:int -> int array
(** Weighted distances; requires non-negative weights (raises
    [Invalid_argument] on a negative edge).  Unreachable = [max_int]. *)
