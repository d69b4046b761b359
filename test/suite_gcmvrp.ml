(* CMVRP on general graphs (the Chapter 6 extension): equivalence with the
   grid implementation on path/grid graphs, and the heuristic plan. *)

let point2 x y = [| x; y |]

let test_line_graph_distances () =
  let t = Gcmvrp.create (Gcmvrp.line_graph 6) ~demand:(Array.make 6 0) in
  Alcotest.(check int) "end to end" 5 (Gcmvrp.distance t 0 5);
  Alcotest.(check int) "self" 0 (Gcmvrp.distance t 3 3)

let test_weighted_distances () =
  let g = Digraph.create 3 in
  Digraph.add_undirected g 0 1 ~weight:5;
  Digraph.add_undirected g 1 2 ~weight:2;
  Digraph.add_undirected g 0 2 ~weight:9;
  let t = Gcmvrp.create g ~demand:[| 0; 0; 0 |] in
  Alcotest.(check int) "shortest path wins" 7 (Gcmvrp.distance t 0 2)

let test_neighborhood_size () =
  let t = Gcmvrp.create (Gcmvrp.line_graph 10) ~demand:(Array.make 10 0) in
  Alcotest.(check int) "ball of 2 around middle" 5
    (Gcmvrp.neighborhood_size t [ 5 ] ~radius:2);
  Alcotest.(check int) "clipped at the end" 3 (Gcmvrp.neighborhood_size t [ 0 ] ~radius:2);
  Alcotest.(check int) "set neighborhood" 6
    (Gcmvrp.neighborhood_size t [ 2; 6 ] ~radius:1)

let test_path_equivalence_with_grid () =
  (* The generalized ω* on a unit-weight path must equal the 1-D grid
     oracle. *)
  let rng = Rng.create 515 in
  for _ = 1 to 6 do
    let pts = List.init 3 (fun _ -> ([| Rng.int rng 5 |], 1 + Rng.int rng 12)) in
    let dm = Demand_map.of_alist 1 pts in
    let grid_star = Oracle.omega_star dm in
    let graph_star = Gcmvrp.omega_star (Gcmvrp.of_path dm) in
    Alcotest.(check (float 1e-4))
      (Printf.sprintf "1-D equivalence (grid=%g, graph=%g)" grid_star graph_star)
      grid_star graph_star
  done

let test_grid2d_equivalence () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 9); (point2 2 1, 4) ] in
  let grid_star = Oracle.omega_star dm in
  let graph_star = Gcmvrp.omega_star (Gcmvrp.of_grid_2d dm ~pad:6) in
  Alcotest.(check (float 1e-4)) "2-D equivalence" grid_star graph_star

let test_omega_subsets_match_lp () =
  (* Lemma 2.2.3's argument is distance-generic: the LP value equals the
     subset maximization on graphs too. *)
  let rng = Rng.create 616 in
  for _ = 1 to 5 do
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n:14
        ~box:(Box.make ~lo:(point2 0 0) ~hi:(point2 7 7))
        ~radius:6
    in
    let demand = Array.init 14 (fun i -> if i < 4 then Rng.int rng 8 else 0) in
    let t = Gcmvrp.create g ~demand in
    (* Only meaningful when the demand vertices can reach each other. *)
    if Gcmvrp.total_demand t > 0 then begin
      let lp = Gcmvrp.omega_star t in
      let support =
        Array.of_list (List.filter (fun v -> demand.(v) > 0) (List.init 14 Fun.id))
      in
      let subsets =
        Reference.max_over_subsets ~n:(Array.length support) (fun idx ->
            let subset = List.map (fun i -> support.(i)) idx in
            let total = List.fold_left (fun acc v -> acc + demand.(v)) 0 subset in
            Omega.solve ~total ~neighborhood_size:(fun r ->
                max 1 (Gcmvrp.neighborhood_size t subset ~radius:r)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "duality on a random graph (lp=%g, subsets=%g)" lp subsets)
        true
        (Float.abs (lp -. subsets) < 1e-3)
    end
  done

let test_plan_greedy_serves_everything () =
  let rng = Rng.create 717 in
  for _ = 1 to 8 do
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n:30
        ~box:(Box.make ~lo:(point2 0 0) ~hi:(point2 9 9))
        ~radius:8
    in
    let demand = Array.init 30 (fun _ -> if Rng.bool rng then Rng.int rng 10 else 0) in
    let t = Gcmvrp.create g ~demand in
    let plan = Gcmvrp.plan_greedy t in
    match Gcmvrp.validate_plan t plan with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("invalid graph plan: " ^ msg)
  done

let test_plan_energy_dominates_omega_star () =
  let rng = Rng.create 818 in
  for _ = 1 to 5 do
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n:25
        ~box:(Box.make ~lo:(point2 0 0) ~hi:(point2 8 8))
        ~radius:7
    in
    let demand = Array.init 25 (fun i -> if i mod 5 = 0 then 5 + Rng.int rng 20 else 0) in
    let t = Gcmvrp.create g ~demand in
    let star = Gcmvrp.omega_star t in
    let plan = Gcmvrp.plan_greedy t in
    let peak = Gcmvrp.plan_max_energy t plan in
    Alcotest.(check bool)
      (Printf.sprintf "ω* (%g) <= plan peak (%d)" star peak)
      true
      (star <= float_of_int peak +. 1e-6)
  done

let test_plan_on_tree () =
  (* A star: center with heavy demand, leaves healthy. *)
  let n = 9 in
  let g = Digraph.create n in
  for leaf = 1 to n - 1 do
    Digraph.add_undirected g 0 leaf ~weight:1
  done;
  let demand = Array.make n 0 in
  demand.(0) <- 24;
  let t = Gcmvrp.create g ~demand in
  let plan = Gcmvrp.plan_greedy t in
  (match Gcmvrp.validate_plan t plan with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* ω*: center supplies ω, 8 leaves supply ω each within radius >= 1:
     9ω >= 24 in the bracket [2,3) -> ω = 24/9 = 2.667. *)
  Alcotest.(check (float 1e-3)) "star omega*" (24.0 /. 9.0) (Gcmvrp.omega_star t)

let test_rejects_bad_input () =
  Alcotest.(check bool) "size mismatch" true
    (try
       ignore (Gcmvrp.create (Gcmvrp.line_graph 3) ~demand:[| 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative demand" true
    (try
       ignore (Gcmvrp.create (Gcmvrp.line_graph 2) ~demand:[| 1; -1 |]);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "line distances" `Quick test_line_graph_distances;
    Alcotest.test_case "weighted distances" `Quick test_weighted_distances;
    Alcotest.test_case "neighborhood size" `Quick test_neighborhood_size;
    Alcotest.test_case "1-D path = grid oracle" `Quick test_path_equivalence_with_grid;
    Alcotest.test_case "2-D grid graph = grid oracle" `Quick test_grid2d_equivalence;
    Alcotest.test_case "LP = subsets on random graphs" `Quick test_omega_subsets_match_lp;
    Alcotest.test_case "greedy plan serves all" `Quick test_plan_greedy_serves_everything;
    Alcotest.test_case "plan peak >= omega*" `Quick test_plan_energy_dominates_omega_star;
    Alcotest.test_case "star graph" `Quick test_plan_on_tree;
    Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
  ]

(* --- appended: the online strategy on general graphs --- *)

let run_gonline inst jobs =
  Gonline.run inst ~jobs
    { Gonline.capacity = Gonline.recommended_capacity inst; seed = 0 }

let test_gonline_path_hot_middle () =
  let n = 21 in
  let demand = Array.make n 0 in
  demand.(10) <- 60;
  let inst = Gcmvrp.create (Gcmvrp.line_graph n) ~demand in
  let jobs = Array.make 60 10 in
  let o = run_gonline inst jobs in
  Alcotest.(check int) "all served" 60 o.Gonline.served;
  Alcotest.(check bool) "success" true (Gonline.succeeded o);
  (* At a deliberately tight capacity the actives must burn out and the
     diffusing computations must bring in replacements. *)
  let tight = Gonline.run inst ~jobs { Gonline.capacity = 25.0; seed = 0 } in
  Alcotest.(check bool) "tight run succeeds" true (Gonline.succeeded tight);
  Alcotest.(check bool) "replacements happened" true (tight.Gonline.replacements > 0)

let test_gonline_star () =
  let n = 15 in
  let g = Digraph.create n in
  for leaf = 1 to n - 1 do
    Digraph.add_undirected g 0 leaf ~weight:1
  done;
  let demand = Array.make n 0 in
  demand.(0) <- 80;
  let inst = Gcmvrp.create g ~demand in
  let o = run_gonline inst (Array.make 80 0) in
  Alcotest.(check bool) "success" true (Gonline.succeeded o)

let test_gonline_random_geometric () =
  let rng = Rng.create 4141 in
  for _ = 1 to 5 do
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n:25
        ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 8; 8 |])
        ~radius:6
    in
    let demand = Array.init 25 (fun i -> if i mod 6 = 0 then 8 + Rng.int rng 20 else 0) in
    let inst = Gcmvrp.create g ~demand in
    (* Jobs in round-robin over the demand sites. *)
    let sites = ref [] in
    Array.iteri (fun v d -> for _ = 1 to d do sites := v :: !sites done) demand;
    let jobs = Array.of_list !sites in
    let o = run_gonline inst jobs in
    Alcotest.(check int) "all served" (Array.length jobs) o.Gonline.served
  done

let test_gonline_min_capacity_above_omega_star () =
  let n = 15 in
  let demand = Array.make n 0 in
  demand.(7) <- 40;
  let inst = Gcmvrp.create (Gcmvrp.line_graph n) ~demand in
  let jobs = Array.make 40 7 in
  let measured = Gonline.min_feasible_capacity inst ~jobs in
  let star = Gcmvrp.omega_star inst in
  Alcotest.(check bool)
    (Printf.sprintf "ω* (%g) <= measured (%g)" star measured)
    true
    (star <= measured +. 0.5);
  Alcotest.(check bool) "within the heuristic capacity" true
    (measured <= Gonline.recommended_capacity inst +. 1e-9)

let test_gonline_insufficient_capacity_fails () =
  let n = 9 in
  let demand = Array.make n 0 in
  demand.(4) <- 50;
  let inst = Gcmvrp.create (Gcmvrp.line_graph n) ~demand in
  let o = Gonline.run inst ~jobs:(Array.make 50 4) { Gonline.capacity = 3.0; seed = 0 } in
  Alcotest.(check bool) "fails cleanly" true (not (Gonline.succeeded o));
  Alcotest.(check bool) "partial service" true (o.Gonline.served > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "gonline: path hot middle" `Quick test_gonline_path_hot_middle;
      Alcotest.test_case "gonline: star" `Quick test_gonline_star;
      Alcotest.test_case "gonline: random geometric" `Quick test_gonline_random_geometric;
      Alcotest.test_case "gonline: ω* sandwich" `Quick test_gonline_min_capacity_above_omega_star;
      Alcotest.test_case "gonline: fails cleanly" `Quick test_gonline_insufficient_capacity_fails;
    ]
