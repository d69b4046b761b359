(* Benchmark harness: one experiment per reproduced artifact of the thesis
   (see DESIGN.md §6 and EXPERIMENTS.md).  Run with no arguments for all
   tables, with experiment ids ("e1" .. "e17") for a subset, or with
   "--bechamel" to add the micro-benchmark timing suite.

   Machine-readable mode: "--json FILE" runs the regression scenario
   suite instead of the tables and writes a BENCH_<rev>.json report
   (per-scenario wall time + Metrics snapshot; schema in
   docs/OBSERVABILITY.md).  "--quick" shrinks both the scenario sizes and
   the bechamel quota for CI smoke runs; "--revision REV" stamps the
   report (defaults to $GITHUB_SHA, then "dev"). *)

let fl = Table.cell_f
let it = Table.cell_i

let section title =
  Printf.printf "\n=== %s ===\n\n%!" title

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2.1(a) / §2.1.1: uniform demand on a square.            *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section
    "E1  Square demand (Fig 2.1a): W1 solves W(2W+a)^2 = d·a^2; W1 -> d as a \
     grows";
  let t =
    Table.create
      ~title:"paper closed form vs. lattice ω_T vs. constructive upper bound"
      [
        ("a", Table.Right);
        ("d", Table.Right);
        ("W1 (paper)", Table.Right);
        ("omega_T (square)", Table.Right);
        ("planner W (upper)", Table.Right);
        ("W1/d", Table.Right);
      ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun a ->
          let w1 = Omega.example_square_w1 ~a ~d in
          let omega = Omega.of_cube ~dim:2 ~side:a ~total:(d * a * a) in
          let dm = Workload.demand (Workload.square ~side:a ~per_point:d ()) in
          let plan = Planner.plan dm in
          Table.add_row t
            [
              it a;
              it d;
              fl w1;
              fl omega;
              it (Planner.max_energy plan);
              fl (w1 /. float_of_int d);
            ])
        [ 2; 4; 8; 16; 32 ];
      Table.add_rule t)
    [ 4; 16; 64 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2.1(b) / §2.1.2: uniform demand on a line.               *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section
    "E2  Line demand (Fig 2.1b): W2 solves W(2W+1) = d; the 2·W2 strategy of \
     Fig 2.2 serves everything";
  let t =
    Table.create
      [
        ("len", Table.Right);
        ("d", Table.Right);
        ("W2 (paper)", Table.Right);
        ("omega_T (line)", Table.Right);
        ("Fig 2.2 strategy W", Table.Right);
        ("strategy/W2", Table.Right);
        ("generic planner W", Table.Right);
      ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun len ->
          let w2 = Omega.example_line_w2 ~d in
          let points = List.init len (fun i -> [| i; 0 |]) in
          let omega = Omega.of_points points ~total:(len * d) in
          let dm = Workload.demand (Workload.line ~len ~per_point:d) in
          let measured = Planner.max_energy (Planner.plan dm) in
          let bespoke = (Fig21.line ~len ~d).Fig21.capacity_used in
          Table.add_row t
            [
              it len;
              it d;
              fl w2;
              fl omega;
              it bespoke;
              fl (float_of_int bespoke /. w2);
              it measured;
            ])
        [ 8; 32; 128 ];
      Table.add_rule t)
    [ 10; 100; 1000 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E3 — Figure 2.1(c) / §2.1.3: all demand at one point.                *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section
    "E3  Point demand (Fig 2.1c): W3 solves W(2W+1)^2 = d; W ~ (d/4)^(1/3)";
  let t =
    Table.create
      [
        ("d", Table.Right);
        ("W3 (paper)", Table.Right);
        ("omega_T (point)", Table.Right);
        ("exact Woff", Table.Right);
        ("Fig 2.3 strategy W", Table.Right);
        ("strategy/W3", Table.Right);
        ("generic planner W", Table.Right);
      ]
  in
  List.iter
    (fun d ->
      let w3 = Omega.example_point_w3 ~d in
      let omega = Omega.of_points [ [| 0; 0 |] ] ~total:d in
      let dm = Demand_map.of_alist 2 [ ([| 0; 0 |], d) ] in
      let measured = Planner.max_energy (Planner.plan dm) in
      let bespoke = (Fig21.point ~d).Fig21.capacity_used in
      Table.add_row t
        [
          it d;
          fl w3;
          fl omega;
          fl (Exact.point_capacity ~dim:2 ~demand:d);
          it bespoke;
          fl (float_of_int bespoke /. w3);
          it measured;
        ])
    [ 10; 100; 1000; 10_000; 100_000; 1_000_000 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Shared random instance pool for E4/E5/E10.                           *)
(* ------------------------------------------------------------------ *)

let instance_pool () =
  let rng = Rng.create 20080803 in
  let box = Box.make ~lo:[| 0; 0 |] ~hi:[| 7; 7 |] in
  [
    ("uniform-60", Workload.uniform ~rng ~box ~jobs:60);
    ("uniform-200", Workload.uniform ~rng ~box ~jobs:200);
    ( "clustered",
      Workload.clustered ~rng ~box ~clusters:3 ~jobs_per_cluster:60 ~spread:1 );
    ("zipf", Workload.zipf_sites ~rng ~box ~sites:10 ~jobs:150 ~exponent:1.4);
    ("square4x30", Workload.square ~side:4 ~per_point:30 ());
    ("line8x20", Workload.line ~len:8 ~per_point:20);
    ("point-500", Workload.point ~total:500 ());
  ]

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 1.4.1: ω* <= Woff <= (2·3^l+l)·ω*.                      *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section
    "E4  Theorem 1.4.1 sandwich: ω* (exact LP 2.8) <= measured Woff <= 20·ω* \
     (l=2)";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("omega* (LP)", Table.Right);
        ("omega_c (cubes)", Table.Right);
        ("planner W", Table.Right);
        ("W/omega*", Table.Right);
        ("bound 2*3^l+l", Table.Right);
      ]
  in
  let ratios = ref [] in
  List.iter
    (fun (name, w) ->
      let dm = Workload.demand w in
      let star = Oracle.omega_star dm in
      let wc = fst (Omega.cube_fixpoint_with_side dm) in
      let measured = Planner.max_energy (Planner.plan dm) in
      let ratio = float_of_int measured /. star in
      ratios := ratio :: !ratios;
      Table.add_row t
        [ name; fl star; fl wc; it measured; fl ratio; fl 20.0 ])
    (instance_pool ());
  Table.add_rule t;
  (* Dimension generality: the same sandwich in 1-D and 3-D. *)
  List.iter
    (fun (name, dm, dim) ->
      let star = Oracle.omega_star dm in
      let wc = fst (Omega.cube_fixpoint_with_side dm) in
      let measured = Planner.max_energy (Planner.plan dm) in
      let ratio = float_of_int measured /. star in
      ratios := ratio :: !ratios;
      Table.add_row t
        [
          name; fl star; fl wc; it measured; fl ratio;
          fl (float_of_int ((2 * Energy.pow 3 dim) + dim));
        ])
    [
      ("1d-hot-segment", Demand_map.of_alist 1 [ ([| 0 |], 150); ([| 6 |], 40) ], 1);
      ( "3d-two-bursts",
        Demand_map.of_alist 3 [ ([| 0; 0; 0 |], 200); ([| 2; 1; 0 |], 60) ],
        3 );
    ];
  Table.print t;
  let rs = Array.of_list !ratios in
  Printf.printf
    "ratio W/omega*: min %.3f, geometric mean %.3f, max %.3f (theorem allows \
     20 + O(1) slack)\n%!"
    (fst (Stats.min_max rs))
    (Stats.geometric_mean rs)
    (snd (Stats.min_max rs))

(* ------------------------------------------------------------------ *)
(* E5 — Algorithm 1 approximation quality (§2.3).                       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section
    "E5  Algorithm 1 quality: ω* <= est <= 2(2·3^l+l)·ω* = 40·ω* (l=2)";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("omega* (LP)", Table.Right);
        ("alg1 estimate", Table.Right);
        ("est/omega*", Table.Right);
        ("proven cap", Table.Right);
        ("cube side w", Table.Left);
      ]
  in
  List.iter
    (fun (name, w) ->
      let dm = Workload.demand w in
      let star = Oracle.omega_star dm in
      let r = Alg1.run ~dim:2 ~n:16 dm in
      Table.add_row t
        [
          name;
          fl star;
          fl r.Alg1.value;
          fl (r.Alg1.value /. star);
          fl (Alg1.approximation_factor 2);
          (match r.Alg1.cube_side with
          | None -> "special-case"
          | Some s -> string_of_int s);
        ])
    (instance_pool ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* E6 — Algorithm 1 linear running time (§2.3 analysis).                *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Algorithm 1 is linear time: cell operations ~ n^2 (l=2)";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("cells n^2", Table.Right);
        ("cell ops", Table.Right);
        ("ops/cell", Table.Right);
        ("wall time (ms)", Table.Right);
      ]
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let dm =
        Demand_map.of_alist 2
          [ ([| n / 2; n / 2 |], 5000); ([| n / 4; n / 4 |], 1000) ]
      in
      let t0 = Sys.time () in
      let r = Alg1.run ~dim:2 ~n dm in
      let ms = (Sys.time () -. t0) *. 1000.0 in
      series := (float_of_int (n * n), float_of_int r.Alg1.cell_ops) :: !series;
      Table.add_row t
        [
          it n;
          it (n * n);
          it r.Alg1.cell_ops;
          fl (float_of_int r.Alg1.cell_ops /. float_of_int (n * n));
          fl ms;
        ])
    [ 64; 128; 256; 512; 1024 ];
  Table.print t;
  let slope = Stats.loglog_slope (Array.of_list !series) in
  Printf.printf
    "log-log slope of ops vs cells: %.3f (1.0 = exactly linear in the grid \
     size)\n%!"
    slope

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 1.4.2: Won = Θ(Woff).                                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section
    "E7  Online strategy (Ch. 3): ω* <= measured min online W <= (4·3^l+l)ωc; \
     omniscient greedy for contrast";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("omega* (LP)", Table.Right);
        ("online W (measured)", Table.Right);
        ("theorem capacity", Table.Right);
        ("greedy W (baseline)", Table.Right);
        ("online/omega*", Table.Right);
      ]
  in
  List.iter
    (fun (name, w) ->
      let dm = Workload.demand w in
      let star = Oracle.omega_star dm in
      let omega_c, side = Omega.cube_fixpoint_with_side dm in
      let measured = Online.min_feasible_capacity ~side w in
      let bound = Online.capacity_bound ~dim:2 omega_c +. 4.0 in
      let greedy = Greedy_online.min_feasible_capacity ~pad:side w in
      Table.add_row t
        [ name; fl star; fl measured; fl bound; fl greedy; fl (measured /. star) ])
    [
      ("point-300", Workload.point ~total:300 ());
      ("line8x20", Workload.line ~len:8 ~per_point:20);
      ("square4x30", Workload.square ~side:4 ~per_point:30 ());
      ( "uniform-200",
        Workload.uniform
          ~rng:(Rng.create 7)
          ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 5; 5 |])
          ~jobs:200 );
      ( "clustered",
        Workload.clustered
          ~rng:(Rng.create 8)
          ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 5; 5 |])
          ~clusters:2 ~jobs_per_cluster:80 ~spread:1 );
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E8 — protocol cost and failure scenarios (§3.2).                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section
    "E8  Diffusing-computation cost per scenario (§3.2.5): messages, \
     computations, replacements";
  let t =
    Table.create
      [
        ("jobs", Table.Right);
        ("scenario", Table.Left);
        ("messages", Table.Right);
        ("computations", Table.Right);
        ("replacements", Table.Right);
        ("msg/replacement", Table.Right);
        ("served", Table.Right);
      ]
  in
  List.iter
    (fun total ->
      let w = Workload.point ~total () in
      let base = Online.recommended w in
      let scenarios =
        [
          ("1: normal", base);
          ( "2: silent initiators",
            {
              base with
              Online.faults =
                {
                  Online.no_faults with
                  Online.silent_initiators =
                    List.init (Online.fleet_size base w) (fun i -> i);
                };
            } );
          ( "chaos: drop 0.2 dup 0.1",
            { base with Online.chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 () } );
          ( "3: two deaths",
            {
              base with
              Online.capacity = base.Online.capacity +. 8.0;
              faults =
                { Online.no_faults with Online.deaths = [ (total / 4, 0); (total / 2, 3) ] };
            } );
        ]
      in
      List.iter
        (fun (name, cfg) ->
          let o = Online.run cfg w in
          let per_repl =
            if o.Online.replacements = 0 then 0.0
            else float_of_int o.Online.messages /. float_of_int o.Online.replacements
          in
          Table.add_row t
            [
              it total;
              name;
              it o.Online.messages;
              it o.Online.computations;
              it o.Online.replacements;
              fl per_repl;
              it o.Online.served;
            ])
        scenarios;
      Table.add_rule t)
    [ 200; 400; 800 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E9 — Figure 4.1: broken vehicles, the LP bound is not tight.         *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section
    "E9  Broken vehicles (Fig 4.1): LP bound 2·r1 vs actual requirement \
     4·r1^2 + r1 — the gap grows like r1";
  let t =
    Table.create
      [
        ("r1", Table.Right);
        ("LP bound (Thm 4.1.1)", Table.Right);
        ("flow LP (check)", Table.Right);
        ("shuttle W needed", Table.Right);
        ("gap ratio", Table.Right);
      ]
  in
  List.iter
    (fun r1 ->
      let fig = Breakdown.Figure41.make ~r1 ~r2:((4 * r1 * r1) + r1 + 1) in
      let lp = Breakdown.Figure41.lp_bound fig in
      let flow_check =
        if r1 <= 4 then
          Table.cell_f
            (Breakdown.lp_lower_bound
               ~longevity:(Breakdown.Figure41.longevity fig)
               (Breakdown.Figure41.demand fig))
        else "(analytic)"
      in
      let req = Breakdown.Figure41.shuttle_requirement fig in
      Table.add_row t
        [ it r1; fl lp; flow_check; it req; fl (float_of_int req /. lp) ])
    [ 2; 4; 8; 16; 32; 64 ];
  Table.print t;
  print_endline
    "(unbounded ratio: with breakdowns the job ARRIVAL ORDER matters and the\n\
    \ transportation relaxation of Theorem 4.1.1 cannot see it — §4.2)"

(* ------------------------------------------------------------------ *)
(* E10 — Theorem 5.1.1: Wtrans-off = Θ(Woff).                           *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section
    "E10  Energy transfers with C = W (Thm 5.1.1): decay lower bound and Woff \
     stay within a constant factor";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("transfer lower bound", Table.Right);
        ("omega* (LP)", Table.Right);
        ("planner W (upper)", Table.Right);
        ("upper/lower", Table.Right);
      ]
  in
  List.iter
    (fun (name, w) ->
      let dm = Workload.demand w in
      let lb = Transfer.lower_bound dm in
      let star = Oracle.omega_star dm in
      let upper = float_of_int (Planner.max_energy (Planner.plan dm)) in
      Table.add_row t
        [ name; fl lb; fl star; fl upper; fl (if lb > 0.0 then upper /. lb else nan) ])
    (instance_pool ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* E11 — §5.2.1: the collector with unbounded tanks.                    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section
    "E11  High-capacity tanks (§5.2.1): collector capacity = Θ(avg d), both \
     accountings; no-transfer ω* for contrast";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("d/pt", Table.Right);
        ("fixed a1=1 measured", Table.Right);
        ("fixed closed form", Table.Right);
        ("var a2=.01 measured", Table.Right);
        ("var closed form", Table.Right);
        ("no-transfer omega*", Table.Right);
      ]
  in
  List.iter
    (fun (n, d) ->
      let demand _ = d in
      let fixed_m = Transfer.Segment.min_capacity ~n ~demand (Transfer.Fixed 1.0) in
      let fixed_f =
        Transfer.Segment.closed_form ~n ~total:(n * d) ~cost:(Transfer.Fixed 1.0)
      in
      let var_m =
        Transfer.Segment.min_capacity ~n ~demand (Transfer.Variable 0.01)
      in
      let var_f =
        Transfer.Segment.closed_form ~n ~total:(n * d) ~cost:(Transfer.Variable 0.01)
      in
      let star = Transfer.Segment.no_transfer_capacity ~n ~demand in
      Table.add_row t
        [ it n; it d; fl fixed_m; fl fixed_f; fl var_m; fl var_f; fl star ])
    [ (8, 5); (16, 5); (32, 5); (64, 5); (128, 5); (256, 5); (512, 5); (64, 50) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E12 — central-depot classics vs dispersed CMVRP (§1.1 review).       *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section
    "E12  Central depot vs dispersed depots: per-vehicle energy as the service \
     area grows (constant local density)";
  let t =
    Table.create
      [
        ("region", Table.Left);
        ("total demand", Table.Right);
        ("CMVRP planner W", Table.Right);
        ("central W (same fleet)", Table.Right);
        ("CW max route energy", Table.Right);
        ("CW routes", Table.Right);
      ]
  in
  List.iter
    (fun k ->
      (* k x k hot spots of demand 40, spaced 10 apart. *)
      let spots =
        List.concat_map
          (fun i -> List.init k (fun j -> ([| 10 * i; 10 * j |], 40)))
          (List.init k (fun i -> i))
      in
      let dm = Demand_map.of_alist 2 spots in
      let planner_w = Planner.max_energy (Planner.plan dm) in
      let fleet =
        match Demand_map.bounding_box dm with
        | None -> 1
        | Some b -> Box.volume (Box.make ~lo:b.Box.lo ~hi:b.Box.hi)
      in
      let depot = Cvrp.centroid dm in
      let central =
        match Central.min_capacity dm ~depot ~fleet with
        | None -> "-"
        | Some w -> it w
      in
      let cw = Cvrp.clarke_wright ~dm ~depot ~capacity:80 in
      Table.add_row t
        [
          Printf.sprintf "%dx%d spots (side %d)" k k ((10 * (k - 1)) + 1);
          it (Demand_map.total dm);
          it planner_w;
          central;
          it (Cvrp.max_route_energy ~dm cw);
          it (List.length cw.Cvrp.routes);
        ])
    [ 1; 2; 3; 4; 6 ];
  Table.print t;
  print_endline
    "(dispersed CMVRP capacity stays flat while any single-depot scheme pays\n\
    \ the growing travel radius — the thesis's §1.2 motivation)"

(* ------------------------------------------------------------------ *)
(* E13 — how tight is Theorem 1.4.1 really?  Local search + exact.      *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section
    "E13  Offline tightness: ω* <= [exact when known] <= local search <= \
     constructive planner (all are Woff bounds)";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("omega* (LP)", Table.Right);
        ("exact Woff", Table.Left);
        ("local search W", Table.Right);
        ("planner W", Table.Right);
        ("LS/omega*", Table.Right);
      ]
  in
  let point_cases = [ ("point-100", 100); ("point-500", 500); ("point-2000", 2000) ] in
  List.iter
    (fun (name, d) ->
      let dm = Demand_map.of_alist 2 [ ([| 0; 0 |], d) ] in
      let star = Oracle.omega_star dm in
      let exact = Exact.point_capacity ~dim:2 ~demand:d in
      let planner = Planner.max_energy (Planner.plan dm) in
      let ls = Localsearch.peak_energy (Localsearch.solve ~rounds:800 dm) in
      Table.add_row t
        [
          name;
          fl star;
          fl exact;
          it ls;
          it planner;
          fl (float_of_int ls /. star);
        ])
    point_cases;
  Table.add_rule t;
  List.iter
    (fun (name, w) ->
      let dm = Workload.demand w in
      let star = Oracle.omega_star dm in
      let planner = Planner.max_energy (Planner.plan dm) in
      let ls = Localsearch.peak_energy (Localsearch.solve ~rounds:800 dm) in
      Table.add_row t
        [ name; fl star; "(unknown)"; it ls; it planner; fl (float_of_int ls /. star) ])
    (instance_pool ());
  Table.print t;
  print_endline
    "(local search closes most of the constructive slack: the paper's\n\
    \ 2·3^l + l constant is, as §2.2 remarks, 'probably pessimistic')"

(* ------------------------------------------------------------------ *)
(* E14 — general graphs (the Chapter 6 open direction).                 *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section
    "E14  Beyond the grid (Ch. 6 future work): ω* generalizes verbatim; a \
     ball-cover heuristic stands in for the cube partition";
  let t =
    Table.create
      [
        ("graph", Table.Left);
        ("vertices", Table.Right);
        ("total demand", Table.Right);
        ("omega* (graph LP)", Table.Right);
        ("ball-cover W", Table.Right);
        ("W/omega*", Table.Right);
      ]
  in
  let row name g demand =
    let inst = Gcmvrp.create g ~demand in
    let star = Gcmvrp.omega_star inst in
    let plan = Gcmvrp.plan_greedy inst in
    (match Gcmvrp.validate_plan inst plan with
    | Ok () -> ()
    | Error msg -> failwith ("E14: invalid plan: " ^ msg));
    let peak = Gcmvrp.plan_max_energy inst plan in
    Table.add_row t
      [
        name;
        it (Gcmvrp.n_vertices inst);
        it (Gcmvrp.total_demand inst);
        fl star;
        it peak;
        fl (float_of_int peak /. star);
      ]
  in
  (* Path graph (provably = 1-D grid). *)
  let path_n = 41 in
  let path_demand = Array.make path_n 0 in
  path_demand.(20) <- 120;
  row "path-41 (hot middle)" (Gcmvrp.line_graph path_n) path_demand;
  (* Star: one heavy center. *)
  let star_n = 25 in
  let star_g = Digraph.create star_n in
  for leaf = 1 to star_n - 1 do
    Digraph.add_undirected star_g 0 leaf ~weight:1
  done;
  let star_demand = Array.make star_n 0 in
  star_demand.(0) <- 200;
  row "star-25 (heavy hub)" star_g star_demand;
  (* Binary tree. *)
  let tree_n = 31 in
  let tree_g = Digraph.create tree_n in
  for v = 1 to tree_n - 1 do
    Digraph.add_undirected tree_g v ((v - 1) / 2) ~weight:1
  done;
  let tree_demand = Array.init tree_n (fun v -> if v >= 15 then 10 else 0) in
  row "tree-31 (leafy demand)" tree_g tree_demand;
  (* Random geometric graphs of growing size. *)
  List.iter
    (fun n ->
      let rng = Rng.create (1000 + n) in
      let g, _ =
        Gcmvrp.random_geometric ~rng ~n
          ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 14; 14 |])
          ~radius:9
      in
      let demand = Array.init n (fun i -> if i mod 4 = 0 then 5 + Rng.int rng 25 else 0) in
      row (Printf.sprintf "geometric-%d" n) g demand)
    [ 20; 40; 60 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E15 — ablations of the online design choices.                        *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section
    "E15  Ablations: cube side and communication radius of the online \
     strategy (point-400 workload)";
  let w = Workload.point ~total:400 () in
  let dm = Workload.demand w in
  let omega_c, side_star = Omega.cube_fixpoint_with_side dm in
  ignore omega_c;
  let t =
    Table.create
      [
        ("cube side", Table.Left);
        ("min workable W", Table.Right);
        ("messages at theorem W", Table.Right);
        ("replacements", Table.Right);
      ]
  in
  List.iter
    (fun side ->
      if side >= 1 then begin
        let min_w = Online.min_feasible_capacity ~side w in
        let cfg =
          { (Online.recommended w) with Online.side; capacity = min_w +. 2.0 }
        in
        let o = Online.run cfg w in
        let label =
          if side = side_star then Printf.sprintf "%d (= ceil(omega_c))" side
          else string_of_int side
        in
        Table.add_row t
          [ label; fl min_w; it o.Online.messages; it o.Online.replacements ]
      end)
    [ max 1 (side_star / 2); side_star; 2 * side_star; 4 * side_star ];
  Table.print t;
  let t2 =
    Table.create
      [
        ("comm radius", Table.Right);
        ("messages", Table.Right);
        ("computations", Table.Right);
        ("served", Table.Right);
      ]
  in
  List.iter
    (fun comm_radius ->
      let cfg = { (Online.recommended w) with Online.comm_radius } in
      let o = Online.run cfg w in
      Table.add_row t2
        [ it comm_radius; it o.Online.messages; it o.Online.computations; it o.Online.served ])
    [ 1; 2; 3; 4 ];
  Table.print t2;
  print_endline
    "(a trade-off, not a free lunch: larger cubes put more idle vehicles in\n\
    \ reach -- lower workable W -- but the diffusing flood covers the whole\n\
    \ cube, so the message bill explodes; the theorem's ωc side is where the\n\
    \ capacity guarantee is actually proven.  Wider comm radii only add\n\
    \ redundant query edges.)"

(* ------------------------------------------------------------------ *)
(* E16 — the collector generalized to 2-D (Ch. 5 open question).        *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section
    "E16  2-D collector with C = infinity (extension of §5.2.1): where big \
     tanks still help on the plane";
  let t =
    Table.create
      [
        ("region", Table.Left);
        ("hot demand D", Table.Right);
        ("avg demand", Table.Right);
        ("collector W (fixed a1=1)", Table.Right);
        ("closed form", Table.Right);
        ("no-transfer omega*", Table.Right);
        ("winner", Table.Left);
      ]
  in
  (* One hot point of demand D = 2·side^2 in an otherwise empty side^2
     field: the collector needs ~avg d + 4, the transfer-free fleet
     ~(D/4)^(1/3).  1-D neighborhoods grow linearly so §5.2.1's collector
     always wins there; 2-D neighborhoods grow quadratically, so it only
     wins once the field is large relative to D^(2/3) — a genuine
     difference the segment example cannot show. *)
  List.iter
    (fun side ->
      let d = 2 * side * side in
      let dm =
        Demand_map.of_alist 2 [ ([| side / 2; side / 2 |], d) ]
      in
      (* Anchor both corners with a unit demand so the collector's window
         (the demand bounding box) spans the whole field. *)
      let dm_window =
        Demand_map.add
          (Demand_map.add dm [| 0; 0 |] 1)
          [| side - 1; side - 1 |] 1
      in
      let vol = side * side in
      let measured = Grid_collector.min_capacity dm_window (Transfer.Fixed 1.0) in
      let formula = Grid_collector.closed_form dm_window ~cost:(Transfer.Fixed 1.0) in
      let star = Oracle.omega_star dm_window in
      Table.add_row t
        [
          Printf.sprintf "%dx%d field" side side;
          it d;
          fl (float_of_int (Demand_map.total dm_window) /. float_of_int vol);
          fl measured;
          fl formula;
          fl star;
          (if measured < star then "collector" else "no-transfer");
        ])
    [ 6; 10; 16; 24; 32 ];
  Table.print t;
  print_endline
    "(the collector overtakes once the field volume outgrows D^(2/3): with\n\
    \ quadratic 2-D neighborhoods the transfer-free fleet already absorbs\n\
    \ hot spots at cube-root capacity, so big tanks pay off later than on\n\
    \ the paper's segment -- an answer to the Ch. 5 open question)"

(* ------------------------------------------------------------------ *)
(* E17 — the online strategy on general graphs (extension).             *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section
    "E17  Online strategy beyond the grid: matching-based pairs + cluster \
     diffusing computations; measured min capacity vs graph ω*";
  let t =
    Table.create
      [
        ("graph", Table.Left);
        ("jobs", Table.Right);
        ("omega* (graph)", Table.Right);
        ("online W (measured)", Table.Right);
        ("W/omega*", Table.Right);
        ("messages", Table.Right);
        ("replacements", Table.Right);
      ]
  in
  let row name inst jobs =
    let star = Gcmvrp.omega_star inst in
    let measured = Gonline.min_feasible_capacity inst ~jobs in
    let o = Gonline.run inst ~jobs ~capacity:(measured +. 2.0) in
    Table.add_row t
      [
        name;
        it (Array.length jobs);
        fl star;
        fl measured;
        fl (measured /. star);
        it o.Online.messages;
        it o.Online.replacements;
      ]
  in
  (* Path with a hot middle. *)
  let path_n = 25 in
  let path_demand = Array.make path_n 0 in
  path_demand.(12) <- 100;
  row "path-25 (hot middle)"
    (Gcmvrp.create (Gcmvrp.line_graph path_n) ~demand:path_demand)
    (Array.make 100 12);
  (* Star hub. *)
  let star_n = 17 in
  let star_g = Digraph.create star_n in
  for leaf = 1 to star_n - 1 do
    Digraph.add_undirected star_g 0 leaf ~weight:1
  done;
  let star_demand = Array.make star_n 0 in
  star_demand.(0) <- 120;
  row "star-17 (hub burst)"
    (Gcmvrp.create star_g ~demand:star_demand)
    (Array.make 120 0);
  (* Random geometric graphs. *)
  List.iter
    (fun n ->
      let rng = Rng.create (3000 + n) in
      let g, _ =
        Gcmvrp.random_geometric ~rng ~n
          ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 9; 9 |])
          ~radius:7
      in
      let demand = Array.init n (fun i -> if i mod 5 = 0 then 10 + Rng.int rng 20 else 0) in
      let inst = Gcmvrp.create g ~demand in
      let sites = ref [] in
      Array.iteri (fun v d -> for _ = 1 to d do sites := v :: !sites done) demand;
      row (Printf.sprintf "geometric-%d" n) inst (Array.of_list !sites))
    [ 20; 35 ];
  Table.print t;
  print_endline
    "(the measured capacity stays a small constant times the graph ω* on\n\
    \ every topology tried -- empirical support for extending Thm 1.4.2\n\
    \ beyond the grid)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite ~quick () =
  section
    (if quick then "Bechamel micro-benchmarks (ns per run, OLS fit; quick quota)"
     else "Bechamel micro-benchmarks (ns per run, OLS fit)");
  let open Bechamel in
  let open Toolkit in
  let dm_mid =
    Workload.demand
      (Workload.uniform
         ~rng:(Rng.create 99)
         ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 7; 7 |])
         ~jobs:200)
  in
  let alg1_dm = Demand_map.of_alist 2 [ ([| 20; 20 |], 5000) ] in
  let flow_net () =
    let rng = Rng.create 3 in
    let net = Maxflow.create 64 in
    for _ = 1 to 400 do
      let u = Rng.int rng 64 and v = Rng.int rng 64 in
      if u <> v then ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:(Rng.int rng 20))
    done;
    net
  in
  let online_w = Workload.point ~total:100 () in
  let online_cfg = Online.recommended online_w in
  let depot = Cvrp.centroid dm_mid in
  let tests =
    Test.make_grouped ~name:"cmvrp"
      [
        Test.make ~name:"omega_point_1e6" (Staged.stage (fun () ->
            ignore (Omega.of_points [ [| 0; 0 |] ] ~total:1_000_000)));
        Test.make ~name:"cube_fixpoint_200jobs" (Staged.stage (fun () ->
            ignore (fst (Omega.cube_fixpoint_with_side dm_mid))));
        Test.make ~name:"alg1_n256" (Staged.stage (fun () ->
            ignore (Alg1.run ~dim:2 ~n:256 alg1_dm)));
        Test.make ~name:"maxflow_64v_400e" (Staged.stage (fun () ->
            let net = flow_net () in
            ignore (Maxflow.max_flow net ~source:0 ~sink:63)));
        (* Arena kernels of the incremental oracle: the warm-started
           uniform-supply search, the frontier (Ball's one BFS) grown a
           shell at a time vs dilating to radius 6 in one call, and
           direct L1-sphere enumeration. *)
        Test.make ~name:"min_uniform_supply_r2_200jobs" (Staged.stage (fun () ->
            ignore (Oracle.lp_value ~radius:2 dm_mid)));
        Test.make ~name:"frontier_r6_200jobs" (Staged.stage (fun () ->
            let f = Ball.frontier (Demand_map.support dm_mid) in
            for _ = 1 to 6 do
              ignore (Ball.expand f)
            done));
        Test.make ~name:"dilate_set_r6_200jobs" (Staged.stage (fun () ->
            ignore (Ball.dilate_set (Demand_map.support dm_mid) ~radius:6)));
        Test.make ~name:"iter_sphere_r6" (Staged.stage (fun () ->
            let n = ref 0 in
            Ball.iter_sphere ~center:[| 0; 0 |] ~radius:6 (fun _ -> incr n);
            ignore !n));
        Test.make ~name:"planner_200jobs" (Staged.stage (fun () ->
            ignore (Planner.plan dm_mid)));
        Test.make ~name:"online_point100" (Staged.stage (fun () ->
            ignore (Online.run online_cfg online_w)));
        Test.make ~name:"clarke_wright_200jobs" (Staged.stage (fun () ->
            ignore (Cvrp.clarke_wright ~dm:dm_mid ~depot ~capacity:40)));
        Test.make ~name:"snake_pairing_16x16" (Staged.stage (fun () ->
            ignore (Snake.pairing (Box.cube_at_origin ~dim:2 ~side:16))));
      ]
  in
  let cfg =
    if quick then Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("ns/run", Table.Right); ("r²", Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some (x :: _) -> Table.cell_f ~decimals:1 x
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square est with
        | Some r -> Table.cell_f ~decimals:4 r
        | None -> "-"
      in
      Table.add_row t [ name; ns; r2 ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* JSON regression scenarios.  Each thunk exercises one hot path end to
   end on a deterministic (seeded) workload; the harness resets the
   Metrics registry before, and snapshots it after, each run, so every
   scenario carries its own counter/gauge/timer profile.  The counters
   are machine-independent, which is what bench-diff leans on in CI.     *)
(* ------------------------------------------------------------------ *)

let json_scenarios ~quick =
  let box7 = Box.make ~lo:[| 0; 0 |] ~hi:[| 7; 7 |] in
  let scale n = if quick then max 1 (n / 3) else n in
  [
    ( "oracle/omega_star-uniform",
      fun () ->
        let dm =
          Workload.demand
            (Workload.uniform ~rng:(Rng.create 99) ~box:box7 ~jobs:(scale 200))
        in
        ignore (Oracle.omega_star dm) );
    ( "oracle/omega_star-clustered",
      fun () ->
        let dm =
          Workload.demand
            (Workload.clustered ~rng:(Rng.create 5) ~box:box7 ~clusters:3
               ~jobs_per_cluster:(scale 60) ~spread:1)
        in
        ignore (Oracle.omega_star dm) );
    ( "oracle/witness-uniform",
      fun () ->
        let dm =
          Workload.demand
            (Workload.uniform ~rng:(Rng.create 99) ~box:box7 ~jobs:(scale 200))
        in
        ignore (Oracle.witness dm) );
    ( "alg1/two-hotspots",
      fun () ->
        let n = if quick then 128 else 512 in
        let dm =
          Demand_map.of_alist 2
            [ ([| n / 2; n / 2 |], 5000); ([| n / 4; n / 4 |], 1000) ]
        in
        ignore (Alg1.run ~dim:2 ~n dm) );
    ( "maxflow/dense",
      fun () ->
        let rng = Rng.create 3 in
        let n = if quick then 96 else 192 in
        let net = Maxflow.create n in
        for _ = 1 to 12 * n do
          let u = Rng.int rng n and v = Rng.int rng n in
          if u <> v then
            ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:(Rng.int rng 20))
        done;
        ignore (Maxflow.max_flow net ~source:0 ~sink:(n - 1)) );
    ( "planner/uniform",
      fun () ->
        let dm =
          Workload.demand
            (Workload.uniform ~rng:(Rng.create 42) ~box:box7 ~jobs:(scale 200))
        in
        ignore (Planner.plan dm) );
    ( "localsearch/point",
      fun () ->
        let dm = Demand_map.of_alist 2 [ ([| 0; 0 |], scale 500) ] in
        ignore (Localsearch.solve ~rounds:(if quick then 150 else 600) dm) );
    ( "online/point",
      fun () ->
        let w = Workload.point ~total:(scale 300) () in
        ignore (Online.run (Online.recommended w) w) );
    ( "online/silent-initiators",
      fun () ->
        let w = Workload.point ~total:(scale 400) () in
        let base = Online.recommended w in
        let cfg =
          {
            base with
            Online.faults =
              {
                Online.no_faults with
                Online.silent_initiators =
                  List.init (Online.fleet_size base w) (fun i -> i);
              };
          }
        in
        ignore (Online.run cfg w) );
    ( "online/chaos",
      fun () ->
        let w = Workload.point ~total:(scale 400) () in
        let base = Online.recommended w in
        let cfg =
          { base with Online.chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 () }
        in
        ignore (Online.run cfg w) );
    (* The ROADMAP production-scale target: a 10^6-vehicle window (10^4 in
       quick mode), band-sharded across Pool workers, serving a sparse
       arrival sequence whose every job exhausts the serving vehicle at
       capacity 2.5 — so the replacement protocol, not the serving walk,
       dominates: the full run delivers about 74,000 messages, and idle
       pairs none.  The corner jobs pin the window to the whole box.  See
       docs/SCALE.md. *)
    ( "online/fleet-1M",
      fun () ->
        let box_side = if quick then 100 else 1000 in
        let rng = Rng.create 77 in
        let box =
          Box.make ~lo:[| 0; 0 |] ~hi:[| box_side - 1; box_side - 1 |]
        in
        let w = Workload.uniform ~rng ~box ~jobs:(scale 200) in
        let w =
          {
            w with
            Workload.jobs =
              Array.append w.Workload.jobs
                [| [| 0; 0 |]; [| box_side - 1; box_side - 1 |] |];
          }
        in
        let cfg =
          Online.config ~seed:7 ~capacity:2.5 ~side:4
            ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
            ~quiesce_budget:10_000_000 ()
        in
        let f = Online.run_fleet ~shards:8 cfg w in
        assert (f.Online.aggregate.Online.vehicles = box_side * box_side) );
    (* serve/*: the oracle-as-a-service path, replayed in-process so the
       scenario measures engine + cache + batching without socket noise.
       The serve.*/loadgen.* counters (requests, hits, misses, histogram
       observation counts) are deterministic at any Pool width; CI gates
       them tightly and the wall clock loosely (see docs/SERVING.md). *)
    ( "serve/repeat-heavy",
      fun () ->
        let engine = Engine.create () in
        let reqs =
          Loadgen.queries ~seed:11 ~mix:Loadgen.Repeat_heavy ~n:(scale 300)
        in
        match Loadgen.replay_engine engine reqs with
        | Ok _ -> ()
        | Error m -> failwith m );
    ( "serve/churn",
      fun () ->
        let engine = Engine.create () in
        let reqs = Loadgen.queries ~seed:12 ~mix:Loadgen.Churn ~n:(scale 300) in
        match Loadgen.replay_engine engine reqs with
        | Ok _ -> ()
        | Error m -> failwith m );
    ( "serve/cold-miss",
      fun () ->
        let engine = Engine.create () in
        let reqs =
          Loadgen.queries ~seed:13 ~mix:Loadgen.Cold_miss ~n:(scale 120)
        in
        match Loadgen.replay_engine engine reqs with
        | Ok _ -> ()
        | Error m -> failwith m );
    (* stream/*: the incremental oracle under sustained churn — one
       Oracle.Session absorbing a long add/remove trace with a query
       after every event.  The delta cost shows up in two deterministic
       counters CI gates tightly: transport.feasibility_checks (one warm
       solve per visited bracket per event — the "handful of probes"
       contract) and paramflow.probes; oracle.session_latency_ns keeps
       the per-event latency distribution (observation count gated, wall
       time not). *)
    ( "stream/churn",
      fun () ->
        let rng = Rng.create 21 in
        let s = Oracle.Session.create (Demand_map.empty 2) in
        let live = ref (Array.make 16 [||]) and n = ref 0 in
        for _ = 1 to scale 100_000 do
          if !n >= 64 || (!n > 0 && Rng.int rng 2 = 0) then begin
            let k = Rng.int rng !n in
            let p = !live.(k) in
            !live.(k) <- !live.(!n - 1);
            decr n;
            Oracle.Session.remove_job s p
          end
          else begin
            let p = [| Rng.int rng 6; Rng.int rng 6 |] in
            Oracle.Session.add_job s p;
            if !n = Array.length !live then begin
              let bigger = Array.make (2 * !n) [||] in
              Array.blit !live 0 bigger 0 !n;
              live := bigger
            end;
            !live.(!n) <- p;
            incr n
          end;
          ignore (Oracle.Session.omega_star s)
        done );
    (* des/*: the simulator alone.  The fleet benchmark's Des kernel —
       10^5 messages forwarded hop by hop through 50,176 processes by 1024
       concurrent tokens, with no protocol handler work — at the same
       size and seed in both modes.  Its des.* counters (events, sends,
       cascades, prunes) and the queue-depth gauge are deterministic, and
       CI gates them tightly; see docs/SCALE.md for its per-event cost. *)
    ( "des/kernel",
      fun () ->
        let procs = 50_176 and tokens = 1024 and hops = 98 in
        let des = Des.create ~rng:(Rng.create 1) () in
        for k = 0 to tokens - 1 do
          let src = k * procs / tokens in
          Des.send des ~src ~dst:((src + 1) mod procs) (hops - 1)
        done;
        let handler ~time:_ ~src:_ ~dst left =
          if left > 0 then
            Des.send des ~src:dst ~dst:((dst + 1) mod procs) (left - 1)
        in
        match Des.run_until_quiescent des ~handler with
        | Des.Quiescent -> assert (Des.messages_delivered des = tokens * hops)
        | Des.Livelock _ -> failwith "des/kernel did not quiesce" );
  ]

let run_json_suite ~quick ~revision path =
  section
    (Printf.sprintf "JSON regression suite (%s mode) -> %s"
       (if quick then "quick" else "full")
       path);
  let scenarios =
    List.map
      (fun (name, f) ->
        Metrics.reset ();
        let t0 = Metrics.now_ns () in
        f ();
        let wall_ms = (Metrics.now_ns () -. t0) /. 1e6 in
        Printf.printf "  %-32s %10.2f ms\n%!" name wall_ms;
        (* zero-valued cells are subsystems this scenario never touched;
           dropping them keeps reports scenario-relevant *)
        let touched = function
          | _, Metrics.Count 0 -> false
          | _, Metrics.Level { value = 0.0; peak = 0.0 } -> false
          | _, Metrics.Span { calls = 0; _ } -> false
          | _, Metrics.Dist { count = 0; _ } -> false
          | _ -> true
        in
        let metrics = List.filter touched (Metrics.snapshot ()) in
        { Bench_report.name; wall_ms; metrics })
      (json_scenarios ~quick)
  in
  let report = Bench_report.make ~revision ~quick scenarios in
  Bench_report.write_file path report;
  Printf.printf "\nwrote %s: %d scenarios, schema v%d, revision %s\n%!" path
    (List.length scenarios) Bench_report.schema_version revision

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let want_bechamel = ref false in
  let quick = ref false in
  let json_path = ref None in
  let revision =
    ref (Option.value ~default:"dev" (Sys.getenv_opt "GITHUB_SHA"))
  in
  let wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | "--bechamel" :: rest ->
        want_bechamel := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | [ "--json" ] ->
        prerr_endline "--json requires an output path";
        exit 2
    | "--revision" :: rev :: rest ->
        revision := rev;
        parse rest
    | [ "--revision" ] ->
        prerr_endline "--revision requires an argument";
        exit 2
    | name :: rest ->
        wanted := name :: !wanted;
        parse rest
  in
  parse args;
  let wanted = List.rev !wanted in
  print_endline
    "CMVRP reproduction benchmarks — Gao, \"On a Capacitated Multivehicle \
     Routing Problem\" (Caltech, 2008)";
  (match !json_path with
  | Some path -> run_json_suite ~quick:!quick ~revision:!revision path
  | None ->
      let to_run =
        match wanted with
        | [] -> experiments
        | names ->
            List.filter_map
              (fun n ->
                match List.assoc_opt n experiments with
                | Some f -> Some (n, f)
                | None ->
                    Printf.eprintf "unknown experiment %S (known: e1..e17)\n" n;
                    None)
              names
      in
      List.iter (fun (_, f) -> f ()) to_run);
  if !want_bechamel then bechamel_suite ~quick:!quick ()
