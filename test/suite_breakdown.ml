(* Chapter 4: the longevity-scaled LP bound and the Figure 4.1 gap. *)

let point2 x y = [| x; y |]

let all_healthy (_ : Point.t) = 1.0

let test_healthy_matches_plain_lp () =
  (* With p == 1 everywhere, program (4.1) degenerates to program (2.8). *)
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 5) ] in
  let plain = Oracle.omega_star dm in
  let b = Breakdown.lp_lower_bound ~longevity:all_healthy dm in
  Alcotest.(check bool)
    (Printf.sprintf "agree (plain=%g, longevity=%g)" plain b)
    true
    (Float.abs (plain -. b) < 0.02)

let test_healthy_matches_plain_lp_random () =
  let rng = Rng.create 4040 in
  for _ = 1 to 5 do
    let pts =
      List.init 3 (fun _ -> (point2 (Rng.int rng 4) (Rng.int rng 4), 1 + Rng.int rng 8))
    in
    let dm = Demand_map.of_alist 2 pts in
    let plain = Oracle.omega_star dm in
    let b = Breakdown.lp_lower_bound ~longevity:all_healthy dm in
    Alcotest.(check bool)
      (Printf.sprintf "agree (plain=%g, longevity=%g)" plain b)
      true
      (Float.abs (plain -. b) < 0.05)
  done

let test_all_dead_is_infeasible () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 3) ] in
  let dead (_ : Point.t) = 0.0 in
  Alcotest.(check bool) "infinite requirement" true
    (Breakdown.lp_lower_bound ~longevity:dead dm = infinity)

let test_half_longevity_doubles_requirement () =
  (* A single demand point, only its own vehicle usable: with p = 1/2 the
     usable energy is ω/2, so ω must double relative to p = 1 — as long as
     ω stays below the distance to any other vehicle's reach. *)
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 1) ] in
  let solo p = if Point.equal p (point2 0 0) then 0.5 else 0.0 in
  let b = Breakdown.lp_lower_bound ~longevity:solo dm in
  Alcotest.(check bool) (Printf.sprintf "ω = 2 (got %g)" b) true
    (Float.abs (b -. 2.0) < 0.02)

let test_lp_agrees_with_subset_dual () =
  (* Flow-based program (4.1) vs. the exhaustive ω_T maximization of
     Theorem 4.1.1 on small random instances with random longevities. *)
  let rng = Rng.create 808 in
  for _ = 1 to 5 do
    let pts =
      List.init 3 (fun _ -> (point2 (Rng.int rng 3) (Rng.int rng 3), 1 + Rng.int rng 5))
    in
    let dm = Demand_map.of_alist 2 pts in
    let table = Point.Tbl.create 16 in
    let longevity p =
      match Point.Tbl.find_opt table p with
      | Some v -> v
      | None ->
          let v = if Rng.bool rng then 1.0 else 0.5 in
          Point.Tbl.replace table p v;
          v
    in
    let flow = Breakdown.lp_lower_bound ~precision:1e-4 ~longevity dm in
    let dual = Reference.breakdown_dual ~longevity dm in
    Alcotest.(check bool)
      (Printf.sprintf "duality (flow=%g, subsets=%g)" flow dual)
      true
      (Float.abs (flow -. dual) < 0.05)
  done

let test_figure41_lp_bound_matches_general_machinery () =
  let fig = Breakdown.Figure41.make ~r1:2 ~r2:30 in
  let dm = Breakdown.Figure41.demand fig in
  let general =
    Breakdown.lp_lower_bound ~longevity:(Breakdown.Figure41.longevity fig) dm
  in
  Alcotest.(check bool)
    (Printf.sprintf "2·r1 (analytic=%g, flow=%g)" (Breakdown.Figure41.lp_bound fig) general)
    true
    (Float.abs (general -. Breakdown.Figure41.lp_bound fig) < 0.05)

let test_figure41_shuttle_requirement_formula () =
  List.iter
    (fun r1 ->
      let fig = Breakdown.Figure41.make ~r1 ~r2:((4 * r1 * r1) + r1 + 1) in
      Alcotest.(check int)
        (Printf.sprintf "r1=%d" r1)
        ((4 * r1 * r1) + r1)
        (Breakdown.Figure41.shuttle_requirement fig))
    [ 1; 2; 5; 10 ]

let test_figure41_simulation_threshold () =
  let fig = Breakdown.Figure41.make ~r1:3 ~r2:60 in
  let req = float_of_int (Breakdown.Figure41.shuttle_requirement fig) in
  Alcotest.(check bool) "succeeds at requirement" true
    (Breakdown.Figure41.simulate_shuttle fig ~capacity:req);
  Alcotest.(check bool) "fails just below" false
    (Breakdown.Figure41.simulate_shuttle fig ~capacity:(req -. 0.5))

let test_figure41_gap_grows () =
  (* The §4.2 message: requirement / LP-bound = Θ(r1), unbounded. *)
  let ratio r1 =
    let fig = Breakdown.Figure41.make ~r1 ~r2:((4 * r1 * r1) + r1 + 1) in
    float_of_int (Breakdown.Figure41.shuttle_requirement fig)
    /. Breakdown.Figure41.lp_bound fig
  in
  Alcotest.(check bool) "ratio grows" true (ratio 16 > 2.0 *. ratio 4);
  Alcotest.(check bool) "ratio = 2·r1 + 1/2" true (Float.abs (ratio 8 -. 16.5) < 1e-9)

let test_figure41_jobs_alternate () =
  let fig = Breakdown.Figure41.make ~r1:2 ~r2:30 in
  let jobs = Breakdown.Figure41.jobs fig in
  Alcotest.(check int) "2·r1 jobs" 4 (Array.length jobs);
  Alcotest.(check bool) "alternating" true
    (not (Point.equal jobs.(0) jobs.(1)) && Point.equal jobs.(0) jobs.(2))

let test_figure41_rejects_small_r2 () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Breakdown.Figure41.make ~r1:3 ~r2:10);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "p=1 degenerates to (2.8)" `Quick test_healthy_matches_plain_lp;
    Alcotest.test_case "p=1 degenerates (random)" `Quick test_healthy_matches_plain_lp_random;
    Alcotest.test_case "all dead infeasible" `Quick test_all_dead_is_infeasible;
    Alcotest.test_case "half longevity doubles ω" `Quick test_half_longevity_doubles_requirement;
    Alcotest.test_case "flow = subset dual (Thm 4.1.1)" `Quick test_lp_agrees_with_subset_dual;
    Alcotest.test_case "Fig 4.1 LP bound = 2·r1" `Quick test_figure41_lp_bound_matches_general_machinery;
    Alcotest.test_case "Fig 4.1 shuttle formula" `Quick test_figure41_shuttle_requirement_formula;
    Alcotest.test_case "Fig 4.1 simulation threshold" `Quick test_figure41_simulation_threshold;
    Alcotest.test_case "Fig 4.1 gap grows (Θ(r1))" `Quick test_figure41_gap_grows;
    Alcotest.test_case "Fig 4.1 jobs alternate" `Quick test_figure41_jobs_alternate;
    Alcotest.test_case "Fig 4.1 rejects small r2" `Quick test_figure41_rejects_small_r2;
  ]
