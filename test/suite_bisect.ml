(* Every monotone search in the library goes through [Bisect].  This
   table pins each call site's result, bit for bit, on fixed inputs —
   the values the hand-written loops produced before they were folded
   into the one helper.  The two sites that run the simulator also pin
   [des.events_dispatched] summed over the call, which moves if the
   probe sequence changes even when the result does not. *)

let point2 x y = [| x; y |]

let events () =
  match Metrics.sample "des.events_dispatched" with
  | Some (Metrics.Count n) -> n
  | _ -> 0

let square_field ~side ~per =
  Demand_map.of_alist 2
    (List.concat_map
       (fun x -> List.init side (fun y -> (point2 x y, per)))
       (List.init side (fun x -> x)))

let online_point () =
  let w = Workload.point ~total:300 () in
  let _, side = Omega.cube_fixpoint_with_side (Workload.demand w) in
  Online.min_feasible_capacity ~side w

let gonline_line () =
  let demand = Array.make 15 0 in
  demand.(7) <- 40;
  let inst = Gcmvrp.create (Gcmvrp.line_graph 15) ~demand in
  Gonline.min_feasible_capacity inst ~jobs:(Array.make 40 7)

let breakdown_dm =
  Demand_map.of_alist 2 [ (point2 0 0, 3); (point2 2 1, 2); (point2 1 2, 4) ]

let half_alive p = if (p.(0) + p.(1)) mod 2 = 0 then 0.9 else 0.4

(* name, thunk, golden bits of the result, DES events (None: no DES). *)
let rows =
  [
    ("Online.min_feasible_capacity", online_point, 4630404104378646528L, Some 66809);
    ("Gonline.min_feasible_capacity", gonline_line, 4622382067542392832L, Some 5207);
    ( "Greedy_online.min_feasible_capacity",
      (fun () -> Greedy_online.min_feasible_capacity (Workload.point ~total:200 ())),
      4641240890982006784L,
      None );
    ( "Grid_collector.min_capacity fixed",
      (fun () -> Grid_collector.min_capacity (square_field ~side:4 ~per:5) (Transfer.Fixed 1.0)),
      4621080245775106048L,
      None );
    ( "Grid_collector.min_capacity variable",
      (fun () ->
        Grid_collector.min_capacity (square_field ~side:5 ~per:3) (Transfer.Variable 0.01)),
      4617309470647648256L,
      None );
    ( "Transfer.lower_bound",
      (fun () ->
        Transfer.lower_bound
          (Demand_map.of_alist 2
             [ (point2 0 0, 17); (point2 3 1, 9); (point2 4 4, 30); (point2 1 3, 2) ])),
      4612370920923725824L,
      None );
    ( "Transfer.Segment.min_capacity",
      (fun () ->
        Transfer.Segment.min_capacity ~n:12 ~demand:(fun x -> 1 + (x mod 3))
          (Transfer.Fixed 1.0)),
      4617972338720243712L,
      None );
    ( "Breakdown.lp_lower_bound",
      (fun () -> Breakdown.lp_lower_bound ~longevity:half_alive breakdown_dm),
      4612187395729653760L,
      None );
    ( "Breakdown.lp_lower_bound all dead",
      (fun () ->
        Breakdown.lp_lower_bound ~search_radius:6 ~longevity:(fun _ -> 0.0) breakdown_dm),
      9218868437227405312L,
      None );
    ( "Breakdown subset dual",
      (fun () -> Reference.breakdown_dual ~longevity:half_alive breakdown_dm),
      4612186418624593920L,
      None );
    ("Omega.example_square_w1", (fun () -> Omega.example_square_w1 ~a:3 ~d:50), 4615925633055572412L, None);
    ( "Omega.example_square_w1 large d",
      (fun () -> Omega.example_square_w1 ~a:5 ~d:200_000),
      4637163834856276780L,
      None );
    ("Omega.example_line_w2", (fun () -> Omega.example_line_w2 ~d:7), 4610053277153152860L, None);
    ("Omega.example_point_w3", (fun () -> Omega.example_point_w3 ~d:1000), 4618408495519672850L, None);
  ]

let test_goldens () =
  List.iter
    (fun (name, run, bits, des) ->
      let before = events () in
      let v = run () in
      let dispatched = events () - before in
      Alcotest.(check int64) (name ^ " result bits") bits (Int64.bits_of_float v);
      Option.iter
        (fun n -> Alcotest.(check int) (name ^ " DES events") n dispatched)
        des)
    rows

(* The helper's give-up and exhaustion paths, which no fast call-site
   input reaches. *)
let test_helper_edges () =
  let probes = ref 0 in
  let never _ =
    incr probes;
    false
  in
  Alcotest.(check (option (float 0.0))) "attempts exhausted" None
    (Bisect.double ~attempts:16 ~start:1.0 never);
  Alcotest.(check int) "one probe per attempt" 16 !probes;
  probes := 0;
  Alcotest.(check (option (float 0.0))) "cap reached" None
    (Bisect.double ~cap:1000.0 ~start:1.0 never);
  Alcotest.(check int) "values above the cap are not probed" 10 !probes;
  Alcotest.(check (option (float 0.0))) "first accepted probe" (Some 8.0)
    (Bisect.double ~start:1.0 (fun w -> w >= 5.0));
  Alcotest.(check (float 0.0)) "gave up: the next doubling is the top"
    (Float.ldexp 4.0 30)
    (Bisect.least ~tol:1e9 ~start:4.0 ~attempts:30 (fun _ -> false));
  let third = 1.0 /. 3.0 in
  let w = Bisect.halve ~lo:0.0 ~hi:1.0 (fun w -> w >= third) in
  Alcotest.(check bool) "tol 0 halves to the last float" true
    (w = third || w = Float.pred third)

let suite =
  [
    Alcotest.test_case "call-site goldens" `Quick test_goldens;
    Alcotest.test_case "helper edge cases" `Quick test_helper_edges;
  ]
