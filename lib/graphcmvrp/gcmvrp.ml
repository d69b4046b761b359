type t = {
  graph : Digraph.t;
  demands : int array;
  dist_cache : int array option array; (* per-source Dijkstra, lazy *)
}

let create graph ~demand =
  let n = Digraph.n_vertices graph in
  if Array.length demand <> n then
    invalid_arg "Gcmvrp.create: demand size mismatch";
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Gcmvrp.create: negative demand")
    demand;
  for v = 0 to n - 1 do
    Digraph.iter_succ graph v (fun ~dst:_ ~weight ->
        if weight <= 0 then invalid_arg "Gcmvrp.create: non-positive weight")
  done;
  { graph; demands = Array.copy demand; dist_cache = Array.make n None }

let n_vertices t = Digraph.n_vertices t.graph

let total_demand t = Array.fold_left Energy.add 0 t.demands

let dist_from t v =
  match t.dist_cache.(v) with
  | Some d -> d
  | None ->
      let d = Paths.dijkstra t.graph ~source:v in
      t.dist_cache.(v) <- Some d;
      d

let distance t u v = (dist_from t u).(v)

let neighborhood_size t subset ~radius =
  let count = ref 0 in
  Paths.settle (Paths.search t.graph ~sources:subset) ~radius (fun _ -> incr count);
  !count

(* --- program (2.8) through Oracle's bracket scan --- *)

(* Program (2.1)'s instance on the demand vertices [sup] and the [grow]
   that extends it to radius m: one Dijkstra per site, resumed at each
   radius.  A vertex becomes a supplier the first time a site's search
   settles it, and each settle links it to that site. *)
let instance t =
  let sup = List.filter (fun v -> t.demands.(v) > 0) (List.init (n_vertices t) Fun.id) in
  let sup = Array.of_list sup in
  let inst = Transport.create ~n_suppliers:0 ~n_demands:(Array.length sup) in
  Array.iteri (fun j v -> Transport.set_demand inst j t.demands.(v)) sup;
  let supplier = Array.make (n_vertices t) (-1) in
  let searches = Array.map (fun v -> Paths.search t.graph ~sources:[ v ]) sup in
  let grow m =
    Array.iteri
      (fun j s ->
        Paths.settle s ~radius:m (fun v ->
            if supplier.(v) < 0 then supplier.(v) <- Transport.add_supplier inst;
            Transport.add_link inst ~supplier:supplier.(v) ~demand:j))
      searches
  in
  (sup, inst, grow)

let omega_star t =
  if total_demand t = 0 then 0.0
  else
    let _, inst, grow = instance t in
    Oracle.scan inst ~grow

let witness t =
  if total_demand t = 0 then None
  else begin
    let sup, inst, grow = instance t in
    let set = List.map (fun j -> sup.(j)) (Oracle.tight_set inst ~grow) in
    let total = List.fold_left (fun acc v -> acc + t.demands.(v)) 0 set in
    let size r = neighborhood_size t set ~radius:r in
    Some (set, Omega.solve ~total ~neighborhood_size:size)
  end

(* --- constructive heuristic: greedy ball cover + budgeted service --- *)

let cover t =
  let n = n_vertices t in
  let radius = max 1 (int_of_float (Float.ceil (omega_star t))) in
  let cluster_of = Array.make n (-1) in
  (* Repeatedly take the unclustered vertex with the largest demand and
     claim every unclustered vertex within the radius. *)
  let rec claim id =
    let center = ref (-1) in
    for v = 0 to n - 1 do
      if
        cluster_of.(v) = -1
        && t.demands.(v) > 0
        && (!center = -1 || t.demands.(v) > t.demands.(!center))
      then center := v
    done;
    if !center < 0 then id
    else begin
      Paths.settle (Paths.search t.graph ~sources:[ !center ]) ~radius (fun v ->
          if cluster_of.(v) = -1 then cluster_of.(v) <- id);
      claim (id + 1)
    end
  in
  let count = claim 0 in
  (cluster_of, count)

type plan = {
  clusters : int list array;
  assignments : (int * int * int) list;
}

let plan_greedy t =
  let cluster_of, count = cover t in
  let clusters = Array.make count [] in
  for v = n_vertices t - 1 downto 0 do
    let c = cluster_of.(v) in
    if c >= 0 then clusters.(c) <- v :: clusters.(c)
  done;
  (* Serve each cluster with its own vehicles, doubling the chunk budget
     until the headcount fits. *)
  let assignments = ref [] in
  Array.iter
    (fun members ->
      let vehicles = Array.of_list members in
      let sites = List.filter (fun v -> t.demands.(v) > 0) members in
      let cluster_demand = List.fold_left (fun acc v -> acc + t.demands.(v)) 0 sites in
      let rec attempt budget =
        let chunks =
          List.concat_map
            (fun site ->
              let d = t.demands.(site) in
              let k = (d + budget - 1) / budget in
              List.init k (fun i ->
                  let units = min budget (d - (i * budget)) in
                  (site, units)))
            sites
        in
        if List.length chunks > Array.length vehicles then attempt (2 * budget)
        else begin
          (* Assign each chunk to the nearest unused cluster vehicle. *)
          let used = Array.make (Array.length vehicles) false in
          List.iter
            (fun (site, units) ->
              let d = dist_from t site in
              let best = ref (-1) in
              Array.iteri
                (fun i v ->
                  if (not used.(i)) && d.(v) <> max_int then
                    match !best with
                    | -1 -> best := i
                    | b -> if d.(v) < d.(vehicles.(b)) then best := i)
                vehicles;
              match !best with
              | -1 -> failwith "Gcmvrp.plan_greedy: cluster disconnected"
              | i ->
                  used.(i) <- true;
                  assignments := (vehicles.(i), site, units) :: !assignments)
            chunks
        end
      in
      if cluster_demand > 0 then
        attempt (max 1 ((cluster_demand + Array.length vehicles - 1)
                        / Array.length vehicles)))
    clusters;
  { clusters; assignments = !assignments }

let plan_max_energy t plan =
  List.fold_left
    (fun acc (vehicle, site, units) ->
      let d = distance t vehicle site in
      if d = max_int then max_int else max acc (d + units))
    0 plan.assignments

let validate_plan t plan =
  let n = n_vertices t in
  let served = Array.make n 0 in
  let used = Array.make n false in
  let problem = ref None in
  List.iter
    (fun (vehicle, site, units) ->
      if units <= 0 && !problem = None then problem := Some "non-positive chunk";
      if used.(vehicle) && !problem = None then
        problem := Some (Printf.sprintf "vehicle %d used twice" vehicle);
      used.(vehicle) <- true;
      served.(site) <- served.(site) + units)
    plan.assignments;
  Array.iteri
    (fun v d ->
      if served.(v) <> d && !problem = None then
        problem := Some (Printf.sprintf "vertex %d served %d of %d" v served.(v) d))
    t.demands;
  match !problem with None -> Ok () | Some msg -> Error msg

(* --- bridges and generators --- *)

let line_graph n =
  if n <= 0 then invalid_arg "Gcmvrp.line_graph: need n > 0";
  let g = Digraph.create n in
  for i = 0 to n - 2 do
    Digraph.add_undirected g i (i + 1) ~weight:1
  done;
  g

let of_path dm =
  if Demand_map.dim dm <> 1 then invalid_arg "Gcmvrp.of_path: need a 1-D demand";
  match Demand_map.bounding_box dm with
  | None -> create (line_graph 1) ~demand:[| 0 |]
  | Some bbox ->
      (* In 1-D, ω_T·(2ω_T+1) <= ... <= total demand, so ω* < sqrt(total):
         padding by that much keeps every useful supplier in the window. *)
      let pad = int_of_float (sqrt (float_of_int (Demand_map.total dm))) + 2 in
      let lo = bbox.Box.lo.(0) - pad and hi = bbox.Box.hi.(0) + pad in
      let n = hi - lo + 1 in
      let demand = Array.make n 0 in
      Demand_map.iter dm (fun p d -> demand.(p.(0) - lo) <- d);
      create (line_graph n) ~demand

let of_grid_2d dm ~pad =
  if Demand_map.dim dm <> 2 then invalid_arg "Gcmvrp.of_grid_2d: need a 2-D demand";
  match Demand_map.bounding_box dm with
  | None -> create (line_graph 1) ~demand:[| 0 |]
  | Some bbox ->
      let window = Box.dilate bbox pad in
      let n = Box.volume window in
      let g = Digraph.create n in
      Box.iter window (fun p ->
          let v = Box.index window p in
          List.iter
            (fun q ->
              if Box.mem window q then begin
                let u = Box.index window q in
                if u > v then Digraph.add_undirected g v u ~weight:1
              end)
            (Point.neighbors p));
      let demand = Array.make n 0 in
      Demand_map.iter dm (fun p d -> demand.(Box.index window p) <- d);
      create g ~demand

let random_geometric ~rng ~n ~box ~radius =
  if n <= 0 then invalid_arg "Gcmvrp.random_geometric: need n > 0";
  let points =
    Array.init n (fun _ ->
        Array.init (Box.dim box) (fun i ->
            Rng.int_in rng box.Box.lo.(i) box.Box.hi.(i)))
  in
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Point.l1_dist points.(i) points.(j) in
      if d > 0 && d <= radius then Digraph.add_undirected g i j ~weight:d
    done
  done;
  (g, points)

let graph_of t = t.graph
