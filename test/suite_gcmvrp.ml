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

let bits = Int64.bits_of_float

let test_path_equivalence_with_grid () =
  (* The generalized ω* on a unit-weight path must equal the 1-D grid
     oracle. *)
  let rng = Rng.create 515 in
  for _ = 1 to 6 do
    let pts = List.init 3 (fun _ -> ([| Rng.int rng 5 |], 1 + Rng.int rng 12)) in
    let dm = Demand_map.of_alist 1 pts in
    let grid_star = Oracle.omega_star dm in
    let graph_star = Gcmvrp.omega_star (Gcmvrp.of_path dm) in
    Alcotest.(check int64)
      (Printf.sprintf "1-D equivalence (grid=%g, graph=%g)" grid_star graph_star)
      (bits grid_star) (bits graph_star)
  done

let test_grid2d_equivalence () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 9); (point2 2 1, 4) ] in
  let grid_star = Oracle.omega_star dm in
  let graph_star = Gcmvrp.omega_star (Gcmvrp.of_grid_2d dm ~pad:6) in
  Alcotest.(check int64) "2-D equivalence" (bits grid_star) (bits graph_star)

(* Both engines on seeded 1-D and 2-D demands: the graph bridge's ω* and
   witness ω are the grid oracle's, bit for bit.  A 2-D bridge's pad is
   at least the answer's radius, so every supplier the grid scan reaches
   lies in its window. *)
let prop_bridges_bit_identical =
  QCheck.Test.make ~name:"graph bridges = grid oracle, bit for bit" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 2 in
      let side = 2 + Rng.int rng 8 in
      let site _ = (Array.init dim (fun _ -> Rng.int rng side), 1 + Rng.int rng 14) in
      let dm = Demand_map.of_alist dim (List.init (1 + Rng.int rng 8) site) in
      let grid_star = Oracle.omega_star dm in
      let inst =
        if dim = 1 then Gcmvrp.of_path dm
        else Gcmvrp.of_grid_2d dm ~pad:(int_of_float grid_star + Rng.int rng 3)
      in
      let graph_star = Gcmvrp.omega_star inst in
      let witness_omega = function Some (_, w) -> bits w | None -> -1L in
      let grid_w = witness_omega (Oracle.witness dm)
      and graph_w = witness_omega (Gcmvrp.witness inst) in
      (bits grid_star = bits graph_star && grid_w = graph_w)
      || QCheck.Test.fail_reportf "seed %d: ω* %h against %h, witness ω %h against %h"
           seed grid_star graph_star (Int64.float_of_bits grid_w)
           (Int64.float_of_bits graph_w))

(* At radius 0 a zero-weight edge puts a second vertex next to a site,
   which the bracket scan's stand-in for bracket 0 does not allow: with
   demand [1; 0; 0] on three vertices joined by 0-weight edges the
   program's value is 1/3. *)
let test_rejects_zero_weight () =
  let g = Digraph.create 3 in
  Digraph.add_undirected g 0 1 ~weight:0;
  Digraph.add_undirected g 1 2 ~weight:0;
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Gcmvrp.create: non-positive weight") (fun () ->
      ignore (Gcmvrp.create g ~demand:[| 1; 0; 0 |]))

let test_omega_subsets_match_lp () =
  (* Lemma 2.2.3's argument is distance-generic: the LP value equals the
     subset maximization on graphs too, and the witness attains it.  On
     14 vertices every |N(T)| divides the LP grid, so the witness ω is the
     subset maximum bit for bit. *)
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
        (Float.abs (lp -. subsets) < 1e-3);
      match Gcmvrp.witness t with
      | None -> Alcotest.fail "no witness for a positive demand"
      | Some (set, w) ->
          Alcotest.(check int64) "witness ω = subset maximum" (bits subsets) (bits w);
          Alcotest.(check bool) "witness set on the support" true
            (set <> [] && List.for_all (fun v -> demand.(v) > 0) set)
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
    Alcotest.test_case "rejects a zero weight" `Quick test_rejects_zero_weight;
    QCheck_alcotest.to_alcotest prop_bridges_bit_identical;
  ]

(* --- appended: the online strategy on general graphs --- *)

let run_gonline inst jobs =
  Gonline.run inst ~jobs ~capacity:(Gonline.recommended_capacity inst)

let test_gonline_path_hot_middle () =
  let n = 21 in
  let demand = Array.make n 0 in
  demand.(10) <- 60;
  let inst = Gcmvrp.create (Gcmvrp.line_graph n) ~demand in
  let jobs = Array.make 60 10 in
  let o = run_gonline inst jobs in
  Alcotest.(check int) "all served" 60 o.Online.served;
  Alcotest.(check bool) "success" true (Online.succeeded o);
  (* At a deliberately tight capacity the actives must burn out and the
     diffusing computations must bring in replacements. *)
  let tight = Gonline.run inst ~jobs ~capacity:25.0 in
  Alcotest.(check bool) "tight run succeeds" true (Online.succeeded tight);
  Alcotest.(check bool) "replacements happened" true (tight.Online.replacements > 0)

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
  Alcotest.(check bool) "success" true (Online.succeeded o)

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
    Alcotest.(check int) "all served" (Array.length jobs) o.Online.served
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
  let o = Gonline.run inst ~jobs:(Array.make 50 4) ~capacity:3.0 in
  Alcotest.(check bool) "fails cleanly" true (not (Online.succeeded o));
  Alcotest.(check bool) "partial service" true (o.Online.served > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "gonline: path hot middle" `Quick test_gonline_path_hot_middle;
      Alcotest.test_case "gonline: star" `Quick test_gonline_star;
      Alcotest.test_case "gonline: random geometric" `Quick test_gonline_random_geometric;
      Alcotest.test_case "gonline: ω* sandwich" `Quick test_gonline_min_capacity_above_omega_star;
      Alcotest.test_case "gonline: fails cleanly" `Quick test_gonline_insufficient_capacity_fails;
    ]

(* --- appended: the graph topology under the shared protocol --- *)

(* E17's four graphs and arrival sequences, built as bench/main.ml builds
   them. *)
let e17_graphs () =
  let path_demand = Array.make 25 0 in
  path_demand.(12) <- 100;
  let star = Digraph.create 17 in
  for leaf = 1 to 16 do
    Digraph.add_undirected star 0 leaf ~weight:1
  done;
  let star_demand = Array.make 17 0 in
  star_demand.(0) <- 120;
  let geometric n =
    let rng = Rng.create (3000 + n) in
    let g, _ =
      Gcmvrp.random_geometric ~rng ~n
        ~box:(Box.make ~lo:[| 0; 0 |] ~hi:[| 9; 9 |])
        ~radius:7
    in
    let demand =
      Array.init n (fun i -> if i mod 5 = 0 then 10 + Rng.int rng 20 else 0)
    in
    let sites = ref [] in
    Array.iteri (fun v d -> for _ = 1 to d do sites := v :: !sites done) demand;
    (Printf.sprintf "geometric-%d" n, Gcmvrp.create g ~demand, Array.of_list !sites)
  in
  [
    ( "path-25",
      Gcmvrp.create (Gcmvrp.line_graph 25) ~demand:path_demand,
      Array.make 100 12 );
    ("star-17", Gcmvrp.create star ~demand:star_demand, Array.make 120 0);
    geometric 20;
    geometric 35;
  ]

(* Each graph's topology against its definition; every broken rule is
   listed, so one check per graph reports them all. *)
let test_gonline_topology_shape () =
  List.iter
    (fun (name, inst, _) ->
      let t = Gonline.topology inst in
      let n = Gcmvrp.n_vertices inst in
      let graph = Gcmvrp.graph_of inst in
      let problems = ref [] in
      let expect ok fmt =
        Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt
      in
      expect (t.Online.cells = n) "%d cells for %d vertices" t.Online.cells n;
      (* Every vertex is in exactly one pair. *)
      let n_pairs = Array.length t.Online.pair_anchor in
      let owner = Array.make n (-1) in
      let claim p c =
        expect (owner.(c) < 0) "vertex %d in two pairs" c;
        owner.(c) <- p
      in
      for p = 0 to n_pairs - 1 do
        claim p t.Online.pair_anchor.(p);
        if t.Online.pair_partner.(p) >= 0 then claim p t.Online.pair_partner.(p)
      done;
      Array.iteri (fun c p -> expect (p >= 0) "vertex %d in no pair" c) owner;
      (* Rings are the contiguous ranges that [pair_ring] names. *)
      let n_rings = Array.length t.Online.ring_off - 1 in
      expect
        (t.Online.ring_off.(0) = 0 && t.Online.ring_off.(n_rings) = n_pairs)
        "rings do not cover the pairs";
      for r = 0 to n_rings - 1 do
        for p = t.Online.ring_off.(r) to t.Online.ring_off.(r + 1) - 1 do
          expect (t.Online.pair_ring.(p) = r) "pair %d outside ring %d" p r
        done
      done;
      let ring_of c = t.Online.pair_ring.(owner.(c)) in
      (* A ring is one cluster: the ball cover's clusters map one to one
         onto rings. *)
      let cover, _ = Gcmvrp.cover inst in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if cover.(u) >= 0 && cover.(v) >= 0 then
            expect
              (cover.(u) = cover.(v) = (ring_of u = ring_of v))
              "vertices %d and %d: clusters and rings disagree" u v
        done
      done;
      (* A partner is a neighbour in the same cluster, and the pair's walk
         is their edge weight; a lone cell walks 0. *)
      for p = 0 to n_pairs - 1 do
        let a = t.Online.pair_anchor.(p) and b = t.Online.pair_partner.(p) in
        let walk = t.Online.pair_walk.(p) in
        if b < 0 then expect (walk = 0) "lone pair %d walks %d" p walk
        else begin
          expect (ring_of a = ring_of b) "pair %d spans two clusters" p;
          match List.assoc_opt b (Digraph.succ graph a) with
          | None -> expect false "pair %d is not an edge" p
          | Some w -> expect (w = walk) "pair %d walks %d, edge weighs %d" p walk w
        end
      done;
      (* The CSR lists a cell's arcs inside its cluster, in arc order. *)
      for v = 0 to n - 1 do
        let off = t.Online.nbr_off.(v) in
        let csr =
          Array.to_list (Array.sub t.Online.nbr_ids off (t.Online.nbr_off.(v + 1) - off))
        in
        let arcs =
          List.filter_map
            (fun (u, _) -> if ring_of u = ring_of v then Some u else None)
            (Digraph.succ graph v)
        in
        expect (csr = arcs) "neighbours of %d are not its cluster arcs" v
      done;
      Alcotest.(check (list string)) name [] (List.rev !problems))
    (e17_graphs ())

let test_gonline_e17_capacities () =
  let pinned = [ 15.0; 62.0; 26.0; 19.0 ] in
  List.iter2
    (fun (name, inst, jobs) w ->
      Alcotest.(check (float 0.0)) name w (Gonline.min_feasible_capacity inst ~jobs))
    (e17_graphs ()) pinned

let test_gonline_chaos () =
  let demand = Array.make 21 0 in
  demand.(10) <- 60;
  let inst = Gcmvrp.create (Gcmvrp.line_graph 21) ~demand in
  let topo = Gonline.topology inst in
  let jobs = Array.make 60 10 in
  let chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 () in
  let run seed retries =
    Online.run_topology
      (Online.config ~seed ~capacity:25.0 ~side:1 ~chaos ~retries ())
      topo ~jobs
  in
  let livelocked = ref 0 in
  for seed = 0 to 7 do
    let o = run seed true in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check int) (name "all served") 60 o.Online.served;
    Alcotest.(check bool) (name "success") true (Online.succeeded o);
    Alcotest.(check int) (name "replacements") 2 o.Online.replacements;
    Alcotest.(check bool) (name "retransmitted") true (o.Online.retries_sent > 0);
    if (run seed false).Online.livelocks > 0 then incr livelocked
  done;
  Alcotest.(check bool) "retries off: a livelock is reported" true (!livelocked > 0)

let test_gonline_relocation_energy_checked () =
  (* Thirty jobs at one end of a long path: the replacement walks far to
     the anchor, and at capacity 10 that walk overdraws it. *)
  let demand = Array.make 60 0 in
  demand.(0) <- 30;
  let inst = Gcmvrp.create (Gcmvrp.line_graph 60) ~demand in
  let jobs = Array.make 30 0 in
  let o = Gonline.run inst ~jobs ~capacity:10.0 in
  Alcotest.(check bool) "not a success" false (Online.succeeded o);
  Alcotest.(check bool) "energy went negative" true
    (List.exists
       (fun f -> f.Online.reason = "energy went negative")
       o.Online.failures);
  Alcotest.(check (float 0.0)) "least capacity" 11.0
    (Gonline.min_feasible_capacity inst ~jobs)

let suite =
  suite
  @ [
      Alcotest.test_case "gonline: topology on E17's graphs" `Quick
        test_gonline_topology_shape;
      Alcotest.test_case "gonline: E17 capacities" `Quick test_gonline_e17_capacities;
      Alcotest.test_case "gonline: chaos" `Quick test_gonline_chaos;
      Alcotest.test_case "gonline: relocation energy checked" `Quick
        test_gonline_relocation_energy_checked;
    ]
