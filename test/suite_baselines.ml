(* Classical comparators: tour length, Clarke–Wright, central dispatch,
   and the omniscient-greedy online baseline. *)

let point2 x y = [| x; y |]

let test_path_and_cycle_length () =
  let pts = [ point2 0 0; point2 2 0; point2 2 2 ] in
  Alcotest.(check int) "out and back" 4 (Tour.cycle_length [ point2 0 0; point2 2 0 ]);
  Alcotest.(check int) "cycle" 8 (Tour.cycle_length pts);
  Alcotest.(check int) "singleton cycle" 0 (Tour.cycle_length [ point2 1 1 ]);
  Alcotest.(check int) "empty" 0 (Tour.cycle_length [])

let grid_demand rng ~points ~max_d =
  Demand_map.of_alist 2
    (List.init points (fun _ ->
         (point2 (Rng.int rng 12) (Rng.int rng 12), 1 + Rng.int rng max_d)))

let test_clarke_wright_valid () =
  let rng = Rng.create 15 in
  for _ = 1 to 15 do
    let dm = grid_demand rng ~points:10 ~max_d:5 in
    let depot = Cvrp.centroid dm in
    let sol = Cvrp.clarke_wright ~dm ~depot ~capacity:12 in
    (match Cvrp.validate ~dm sol with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("clarke-wright: " ^ msg));
    List.iter
      (fun r ->
        Alcotest.(check bool) "capacity respected" true
          (Cvrp.route_demand dm r <= 12))
      sol.Cvrp.routes
  done

let test_clarke_wright_merges_routes () =
  (* Customers on a line far from the depot: merging must beat one round
     trip each. *)
  let dm = Demand_map.of_alist 2 (List.init 5 (fun i -> (point2 (10 + i) 0, 1))) in
  let depot = point2 0 0 in
  let merged = Cvrp.clarke_wright ~dm ~depot ~capacity:5 in
  let singles = Cvrp.clarke_wright ~dm ~depot ~capacity:1 in
  Alcotest.(check int) "single merged route" 1 (List.length merged.Cvrp.routes);
  Alcotest.(check bool) "merging shortens total travel" true
    (Cvrp.total_travel merged < Cvrp.total_travel singles)

let test_central_vehicles_needed () =
  let dm = Demand_map.of_alist 2 [ (point2 3 0, 10) ] in
  (* W = 5: reach = 2 per trip, so 5 vehicles. *)
  Alcotest.(check (option int)) "ceil(10/2)" (Some 5)
    (Central.vehicles_needed dm ~depot:(point2 0 0) ~capacity:5);
  Alcotest.(check (option int)) "unreachable" None
    (Central.vehicles_needed dm ~depot:(point2 0 0) ~capacity:3)

let test_central_min_capacity () =
  let dm = Demand_map.of_alist 2 [ (point2 3 0, 10) ] in
  (* Fleet of 5 needs W = 5 (5 trips of 2 units each). *)
  Alcotest.(check (option int)) "fleet 5" (Some 5)
    (Central.min_capacity dm ~depot:(point2 0 0) ~fleet:5);
  (* A single vehicle must haul everything: W = 3 + 10. *)
  Alcotest.(check (option int)) "fleet 1" (Some 13)
    (Central.min_capacity dm ~depot:(point2 0 0) ~fleet:1)

let test_central_grows_with_distance () =
  let near = Demand_map.of_alist 2 [ (point2 2 0, 8) ] in
  let far = Demand_map.of_alist 2 [ (point2 40 0, 8) ] in
  let cap dm = Option.get (Central.min_capacity dm ~depot:(point2 0 0) ~fleet:100) in
  Alcotest.(check bool) "distance dominates" true (cap far > cap near + 30)

let test_greedy_online_serves_with_generous_capacity () =
  let w = Workload.square ~side:4 ~per_point:5 () in
  let o = Greedy_online.run ~capacity:100.0 w in
  Alcotest.(check bool) "success" true (Greedy_online.succeeded o);
  Alcotest.(check int) "all served" 80 o.Greedy_online.served

let test_greedy_online_fails_when_starved () =
  let w = Workload.point ~total:100 () in
  let o = Greedy_online.run ~capacity:2.0 w in
  Alcotest.(check bool) "failures recorded" true (o.Greedy_online.failed > 0)

let test_greedy_min_capacity_sandwich () =
  (* Greedy is a valid online strategy, so its minimal capacity is also
     an upper bound on Won and must exceed ω*. *)
  let w = Workload.point ~total:200 () in
  let star = Oracle.omega_star (Workload.demand w) in
  let greedy = Greedy_online.min_feasible_capacity w in
  Alcotest.(check bool)
    (Printf.sprintf "ω* (%g) <= greedy (%g)" star greedy)
    true
    (star <= greedy +. 0.5)

let suite =
  [
    Alcotest.test_case "path and cycle length" `Quick test_path_and_cycle_length;
    Alcotest.test_case "clarke-wright valid" `Quick test_clarke_wright_valid;
    Alcotest.test_case "clarke-wright merges" `Quick test_clarke_wright_merges_routes;
    Alcotest.test_case "central vehicles needed" `Quick test_central_vehicles_needed;
    Alcotest.test_case "central min capacity" `Quick test_central_min_capacity;
    Alcotest.test_case "central grows with distance" `Quick test_central_grows_with_distance;
    Alcotest.test_case "greedy online success" `Quick test_greedy_online_serves_with_generous_capacity;
    Alcotest.test_case "greedy online starves" `Quick test_greedy_online_fails_when_starved;
    Alcotest.test_case "greedy capacity sandwich" `Quick test_greedy_min_capacity_sandwich;
  ]
