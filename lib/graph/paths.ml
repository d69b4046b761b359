let dijkstra g ~source =
  let n = Digraph.n_vertices g in
  let dist = Array.make n max_int in
  let heap =
    Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) ()
  in
  dist.(source) <- 0;
  Heap.push heap (0, source);
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        if d <= dist.(v) then
          Digraph.iter_succ g v (fun ~dst ~weight ->
              if weight < 0 then invalid_arg "Paths.dijkstra: negative weight";
              let nd = d + weight in
              if nd < dist.(dst) then begin
                dist.(dst) <- nd;
                Heap.push heap (nd, dst)
              end);
        drain ()
  in
  drain ();
  dist
