type t = {
  n : int;
  adj : (int * int) list array; (* reversed insertion order internally *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make n [] }

let n_vertices g = g.n

let check_vertex g v name =
  if v < 0 || v >= g.n then invalid_arg ("Digraph." ^ name ^ ": vertex out of range")

let add_edge g ~src ~dst ~weight =
  check_vertex g src "add_edge";
  check_vertex g dst "add_edge";
  g.adj.(src) <- (dst, weight) :: g.adj.(src)

let add_undirected g u v ~weight =
  add_edge g ~src:u ~dst:v ~weight;
  add_edge g ~src:v ~dst:u ~weight

let succ g v =
  check_vertex g v "succ";
  List.rev g.adj.(v)

let iter_succ g v f =
  check_vertex g v "iter_succ";
  List.iter (fun (dst, weight) -> f ~dst ~weight) (List.rev g.adj.(v))
