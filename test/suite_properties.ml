(* Cross-module invariant properties (qcheck): the inequalities the thesis
   proves, exercised over randomized instances. *)

let point2 x y = [| x; y |]

let gen_demand =
  QCheck.Gen.(
    map
      (fun triples ->
        Demand_map.of_alist 2
          (List.map (fun (x, y, d) -> (point2 x y, d)) triples))
      (list_size (int_range 1 6)
         (triple (int_range 0 6) (int_range 0 6) (int_range 1 25))))

let arb_demand = QCheck.make ~print:(fun dm -> Format.asprintf "%a" Demand_map.pp dm) gen_demand

let prop_lower_bounds_chain =
  (* ωc <= ω* + slack and ω* <= planner peak: the full Theorem 1.4.1 chain
     on random instances. *)
  QCheck.Test.make ~name:"Thm 1.4.1 chain: ωc ⪅ ω* <= planner peak" ~count:30
    arb_demand
    (fun dm ->
      let star = Oracle.omega_star dm in
      let wc = fst (Omega.cube_fixpoint_with_side dm) in
      let peak = float_of_int (Planner.max_energy (Planner.plan dm)) in
      wc <= star +. 1.0 && star <= peak +. 1e-6)

let prop_lp_value_monotone_radius =
  QCheck.Test.make ~name:"LP (2.1) value non-increasing in the radius" ~count:20
    arb_demand
    (fun dm ->
      let v0 = Oracle.lp_value ~radius:0 dm in
      let v1 = Oracle.lp_value ~radius:1 dm in
      let v2 = Oracle.lp_value ~radius:2 dm in
      v0 +. 1e-6 >= v1 && v1 +. 1e-6 >= v2)

let prop_alg1_monotone_in_demand =
  QCheck.Test.make ~name:"Algorithm 1 estimate non-decreasing in demand" ~count:30
    arb_demand
    (fun dm ->
      let doubled =
        Demand_map.fold dm ~init:(Demand_map.empty 2) ~f:(fun acc p d ->
            Demand_map.add acc p (2 * d))
      in
      let e1 = (Alg1.run ~dim:2 ~n:8 dm).Alg1.value in
      let e2 = (Alg1.run ~dim:2 ~n:8 doubled).Alg1.value in
      e2 >= e1 -. 1e-9)

let prop_breakdown_dominates_healthy =
  QCheck.Test.make ~name:"longevity <= 1 never lowers the LP requirement"
    ~count:10 arb_demand
    (fun dm ->
      let healthy = Oracle.omega_star dm in
      let rng = Rng.create (Demand_map.total dm) in
      let table = Point.Tbl.create 16 in
      let longevity p =
        match Point.Tbl.find_opt table p with
        | Some v -> v
        | None ->
            let v = 0.3 +. Rng.float rng 0.7 in
            Point.Tbl.replace table p v;
            v
      in
      let degraded = Breakdown.lp_lower_bound ~precision:1e-3 ~longevity dm in
      degraded >= healthy -. 0.05)

let prop_transfer_lower_bound_scales =
  QCheck.Test.make ~name:"transfer lower bound non-decreasing in demand" ~count:20
    arb_demand
    (fun dm ->
      let doubled =
        Demand_map.fold dm ~init:(Demand_map.empty 2) ~f:(fun acc p d ->
            Demand_map.add acc p (2 * d))
      in
      Transfer.lower_bound doubled >= Transfer.lower_bound dm -. 1e-9)

let prop_collector_monotone_in_w =
  QCheck.Test.make ~name:"collector success monotone in capacity" ~count:30
    QCheck.(triple (int_range 2 40) (int_range 0 20) (int_range 0 100))
    (fun (n, d, wq) ->
      let w = float_of_int wq /. 4.0 in
      let demand _ = d in
      let cost = Transfer.Fixed 1.0 in
      let at v = (Transfer.Segment.simulate ~n ~demand ~cost ~w:v).Transfer.Segment.success in
      (* If it succeeds at w, it succeeds at w + 1. *)
      (not (at w)) || at (w +. 1.0))

let prop_exact_point_monotone =
  QCheck.Test.make ~name:"exact point capacity monotone in demand" ~count:50
    QCheck.(pair (int_range 1 500) (int_range 1 500))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Exact.point_capacity ~dim:2 ~demand:lo
      <= Exact.point_capacity ~dim:2 ~demand:hi +. 1e-9)

let prop_online_fleet_survival =
  (* Lemma 3.3.1's accounting: at the theorem capacity at least half the
     fleet can still serve after all jobs. *)
  QCheck.Test.make ~name:"Lemma 3.3.1: at least half the fleet survives" ~count:10
    QCheck.(int_range 50 400)
    (fun total ->
      let w = Workload.point ~total () in
      let o = Online.run (Online.recommended w) w in
      Online.succeeded o
      && 2 * o.Online.vehicles_still_serviceable >= o.Online.vehicles)

let prop_greedy_vs_protocol_both_bounded =
  QCheck.Test.make ~name:"both online strategies stay above ω*" ~count:8
    QCheck.(int_range 50 250)
    (fun total ->
      let w = Workload.point ~total () in
      let dm = Workload.demand w in
      let star = Oracle.omega_star dm in
      let _, side = Omega.cube_fixpoint_with_side dm in
      let ours = Online.min_feasible_capacity ~side w in
      let greedy = Greedy_online.min_feasible_capacity ~pad:side w in
      ours +. 0.5 >= star && greedy +. 0.5 >= star)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_lower_bounds_chain;
      prop_lp_value_monotone_radius;
      prop_alg1_monotone_in_demand;
      prop_breakdown_dominates_healthy;
      prop_transfer_lower_bound_scales;
      prop_collector_monotone_in_w;
      prop_exact_point_monotone;
      prop_online_fleet_survival;
      prop_greedy_vs_protocol_both_bounded;
    ]
