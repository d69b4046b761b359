(* Clusters: the ball cover; an unclustered vertex joins the cluster of
   its nearest clustered vertex (the first in vertex order at the least
   distance, vertices absorbed before it included), and one with no
   clustered vertex in reach becomes a cluster of its own. *)
let clusters inst =
  let n = Gcmvrp.n_vertices inst in
  let cluster_of, count = Gcmvrp.cover inst in
  let count = ref count in
  for v = 0 to n - 1 do
    if cluster_of.(v) < 0 then begin
      let best = ref (-1) and best_d = ref max_int in
      for u = 0 to n - 1 do
        if cluster_of.(u) >= 0 then begin
          let d = Gcmvrp.distance inst v u in
          if d < !best_d then begin
            best_d := d;
            best := u
          end
        end
      done;
      if !best >= 0 then cluster_of.(v) <- cluster_of.(!best)
      else begin
        cluster_of.(v) <- !count;
        incr count
      end
    end
  done;
  (cluster_of, !count)

let topology inst =
  let n = Gcmvrp.n_vertices inst in
  let graph = Gcmvrp.graph_of inst in
  let cluster_of, n_clusters = clusters inst in
  let same_cluster v u = cluster_of.(u) = cluster_of.(v) in
  (* Greedy maximal matching in vertex order: each unmatched vertex takes
     its first unmatched neighbour of the same cluster, in arc order. *)
  let matched = Array.make n false in
  let rev_pairs = ref [] (* (cluster, anchor, partner, walk) *) in
  for v = 0 to n - 1 do
    if not matched.(v) then begin
      matched.(v) <- true;
      let partner = ref (-1) and walk = ref 0 in
      Digraph.iter_succ graph v (fun ~dst ~weight ->
          if !partner < 0 && (not matched.(dst)) && same_cluster v dst then begin
            partner := dst;
            walk := weight
          end);
      if !partner >= 0 then matched.(!partner) <- true;
      rev_pairs := (cluster_of.(v), v, !partner, !walk) :: !rev_pairs
    end
  done;
  (* New pair ids cluster by cluster, so each cluster is one ring. *)
  let pairs = Array.of_list (List.rev !rev_pairs) in
  Array.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) pairs;
  let ring_off = Array.make (n_clusters + 1) 0 in
  Array.iter (fun (c, _, _, _) -> ring_off.(c + 1) <- ring_off.(c + 1) + 1) pairs;
  for c = 1 to n_clusters do
    ring_off.(c) <- ring_off.(c) + ring_off.(c - 1)
  done;
  let nbrs =
    Array.init n (fun v ->
        List.filter_map
          (fun (u, _) -> if same_cluster v u then Some u else None)
          (Digraph.succ graph v))
  in
  let nbr_off = Array.make (n + 1) 0 in
  Array.iteri (fun v l -> nbr_off.(v + 1) <- nbr_off.(v) + List.length l) nbrs;
  {
    Online.cells = n;
    nbr_off;
    nbr_ids = Array.of_list (List.concat (Array.to_list nbrs));
    ring_off;
    pair_ring = Array.map (fun (c, _, _, _) -> c) pairs;
    pair_anchor = Array.map (fun (_, a, _, _) -> a) pairs;
    pair_partner = Array.map (fun (_, _, b, _) -> b) pairs;
    pair_walk = Array.map (fun (_, _, _, w) -> w) pairs;
    dist = Gcmvrp.distance inst;
    point = (fun v -> [| v |]);
  }

(* [side] and [comm_radius] shape only the grid's topology. *)
let config ~seed ~capacity = Online.config ~seed ~capacity ~side:1 ()

let run ?(seed = 0) inst ~jobs ~capacity =
  Online.run_topology (config ~seed ~capacity) (topology inst) ~jobs

let recommended_capacity inst =
  ((4.0 *. 9.0) +. 2.0) *. Float.max 1.0 (Gcmvrp.omega_star inst) +. 4.0

let min_feasible_capacity ?(tol = 0.25) ?(seed = 0) inst ~jobs =
  let topo = topology inst in
  let ok capacity =
    Online.succeeded (Online.run_topology (config ~seed ~capacity) topo ~jobs)
  in
  Bisect.least ~tol ~start:4.0 ~attempts:30 ok
