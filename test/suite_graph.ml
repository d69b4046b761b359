let test_dijkstra_weighted () =
  let g = Digraph.create 4 in
  Digraph.add_edge g ~src:0 ~dst:1 ~weight:5;
  Digraph.add_edge g ~src:0 ~dst:2 ~weight:1;
  Digraph.add_edge g ~src:2 ~dst:1 ~weight:2;
  Digraph.add_edge g ~src:1 ~dst:3 ~weight:1;
  let d = Paths.dijkstra g ~source:0 in
  Alcotest.(check (array int)) "distances" [| 0; 3; 1; 4 |] d

let test_dijkstra_rejects_negative () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~src:0 ~dst:1 ~weight:(-1);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Paths.dijkstra: negative weight") (fun () ->
      ignore (Paths.dijkstra g ~source:0))

(* A search settled one radius at a time settles each reachable vertex
   once, in the step its distance falls in; from several sources the
   distance is the nearest one's. *)
let test_search_resumes () =
  let rng = Rng.create 7 in
  for _ = 1 to 20 do
    let n = 12 in
    let g = Digraph.create n in
    for _ = 1 to 25 do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then Digraph.add_edge g ~src:u ~dst:v ~weight:(Rng.int rng 6)
    done;
    let sources = [ Rng.int rng n; Rng.int rng n ] in
    let nearest =
      List.fold_left
        (fun acc src -> Array.map2 Int.min acc (Paths.dijkstra g ~source:src))
        (Array.make n max_int) sources
    in
    let s = Paths.search g ~sources in
    let settled_at = Array.make n max_int in
    for r = 0 to 5 * n do
      Paths.settle s ~radius:r (fun v ->
          Alcotest.(check int) "settled once" max_int settled_at.(v);
          settled_at.(v) <- r)
    done;
    Alcotest.(check (array int)) "settled at the nearest distance" nearest settled_at
  done

let test_bellman_ford_agrees_with_dijkstra () =
  let rng = Rng.create 99 in
  for _ = 1 to 20 do
    let n = 8 in
    let g = Digraph.create n in
    for _ = 1 to 20 do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then Digraph.add_edge g ~src:u ~dst:v ~weight:(Rng.int rng 10)
    done;
    match Reference.bellman_ford g ~source:0 with
    | Error () -> Alcotest.fail "no negative cycles possible"
    | Ok bf ->
        let dj = Paths.dijkstra g ~source:0 in
        Alcotest.(check (array int)) "agree" bf dj
  done

let test_bellman_ford_negative_cycle () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~src:0 ~dst:1 ~weight:1;
  Digraph.add_edge g ~src:1 ~dst:0 ~weight:(-2);
  Alcotest.(check bool) "detected" true (Reference.bellman_ford g ~source:0 = Error ())

let test_bellman_ford_negative_edge_ok () =
  let g = Digraph.create 3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~weight:4;
  Digraph.add_edge g ~src:0 ~dst:2 ~weight:1;
  Digraph.add_edge g ~src:2 ~dst:1 ~weight:(-3);
  match Reference.bellman_ford g ~source:0 with
  | Error () -> Alcotest.fail "no negative cycle here"
  | Ok d -> Alcotest.(check (array int)) "distances" [| 0; -2; 1 |] d

let test_digraph_accessors () =
  let g = Digraph.create 3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~weight:7;
  Digraph.add_edge g ~src:0 ~dst:2 ~weight:9;
  Alcotest.(check int) "vertices" 3 (Digraph.n_vertices g);
  Alcotest.(check (list (pair int int))) "succ order" [ (1, 7); (2, 9) ] (Digraph.succ g 0)

let suite =
  [
    Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
    Alcotest.test_case "dijkstra rejects negative" `Quick test_dijkstra_rejects_negative;
    Alcotest.test_case "search resumes radius by radius" `Quick test_search_resumes;
    Alcotest.test_case "bellman-ford vs dijkstra" `Quick test_bellman_ford_agrees_with_dijkstra;
    Alcotest.test_case "negative cycle detection" `Quick test_bellman_ford_negative_cycle;
    Alcotest.test_case "negative edge ok" `Quick test_bellman_ford_negative_edge_ok;
    Alcotest.test_case "digraph accessors" `Quick test_digraph_accessors;
  ]
