(* Independent references for the differential tests: Bellman–Ford
   against Dijkstra, a queue-based lattice BFS against [Ball]'s frontier
   and closed form, a small max-flow over an edge list, the exhaustive
   side of the subset duals (Lemma 2.2.2 and its variants), which
   enumerate every demand subset, cube scans that try every anchor of
   the bounding box, the online grid topology built cube by cube, a
   request decoder that goes through a [Json.t] tree, and the demand map
   kept in a balanced tree.  The max-flow, the duals and the cube scans
   are exponential, dense or box-sized on purpose — tiny instances
   only. *)

(* Single-source shortest paths that allow negative weights: [Error ()]
   when a negative cycle is reachable from [source].  Unreachable =
   [max_int]. *)
let bellman_ford g ~source =
  let n = Digraph.n_vertices g in
  let dist = Array.make n max_int in
  dist.(source) <- 0;
  let relax_once () =
    let changed = ref false in
    for v = 0 to n - 1 do
      if dist.(v) <> max_int then
        Digraph.iter_succ g v (fun ~dst ~weight ->
            if dist.(v) + weight < dist.(dst) then begin
              dist.(dst) <- dist.(v) + weight;
              changed := true
            end)
    done;
    !changed
  in
  let rec rounds k =
    if k = 0 then relax_once ()
    else begin
      let changed = relax_once () in
      if changed then rounds (k - 1) else false
    end
  in
  if rounds (n - 1) then Error () else Ok dist

(* [N_radius(T)] by multi-source breadth-first search with a queue and a
   distance table: every point paired with its L1 distance to [points],
   in discovery order (seeds first, in input order, duplicates dropped). *)
let bfs points ~radius =
  let dist = Point.Tbl.create 64 in
  let queue = Queue.create () in
  let order = ref [] in
  let visit d p =
    if not (Point.Tbl.mem dist p) then begin
      Point.Tbl.add dist p d;
      Queue.add p queue;
      order := (p, d) :: !order
    end
  in
  List.iter (visit 0) points;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let d = Point.Tbl.find dist p in
    if d < radius then List.iter (visit (d + 1)) (Point.neighbors p)
  done;
  List.rev !order

(* [|N_radius(T)|]. *)
let dilation_size points ~radius = List.length (bfs points ~radius)

(* The shells of [bfs], index r holding the points at distance exactly r
   in discovery order. *)
let dilate_shells points ~max_radius =
  let shells = Array.make (max_radius + 1) [] in
  List.iter
    (fun (p, d) -> shells.(d) <- p :: shells.(d))
    (bfs points ~radius:max_radius);
  Array.map List.rev shells

(* Dinic's algorithm on a dense residual matrix.  Returns the flow value
   and the source side of the minimal minimum cut: the vertices the last
   (failed) level search reached from [source]. *)
let max_flow ~n ~edges ~source ~sink =
  let cap = Array.make_matrix n n 0 in
  List.iter (fun (u, v, c) -> cap.(u).(v) <- cap.(u).(v) + c) edges;
  let level = Array.make n (-1) in
  let levels () =
    Array.fill level 0 n (-1);
    level.(source) <- 0;
    let q = Queue.create () in
    Queue.add source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for v = 0 to n - 1 do
        if cap.(u).(v) > 0 && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end
      done
    done;
    level.(sink) >= 0
  in
  (* One augmenting path along the level graph, at most [f] units; a
     vertex with no way forward leaves the level graph for this phase. *)
  let rec push u f =
    if u = sink then f
    else begin
      let rec from v =
        if v = n then 0
        else if cap.(u).(v) > 0 && level.(v) = level.(u) + 1 then begin
          match push v (min f cap.(u).(v)) with
          | 0 ->
              level.(v) <- -1;
              from (v + 1)
          | got ->
              cap.(u).(v) <- cap.(u).(v) - got;
              cap.(v).(u) <- cap.(v).(u) + got;
              got
        end
        else from (v + 1)
      in
      from 0
    end
  in
  let total = ref 0 in
  while levels () do
    let rec phase () =
      match push source max_int with
      | 0 -> ()
      | got ->
          total := !total + got;
          phase ()
    in
    phase ()
  done;
  (!total, Array.map (fun l -> l >= 0) level)

(* The largest [value subset] over the non-empty subsets of [0 .. n-1],
   each given as its ascending index list; 0 when there are none. *)
let max_over_subsets ~n value =
  if n > 20 then invalid_arg "Reference.max_over_subsets: support too large";
  let best = ref 0.0 in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    let v = value subset in
    if v > !best then best := v
  done;
  !best

(* Lemma 2.2.2: [max_J D(J) / |N(J)|] over the demand sites of a
   transport instance; infinity when some demand has no supplier. *)
let transport_dual t =
  let n = Transport.n_demands t in
  let suppliers = Array.make n [] in
  Transport.iter_links t (fun ~supplier ~demand ->
      suppliers.(demand) <- supplier :: suppliers.(demand));
  max_over_subsets ~n (fun js ->
      let d = List.fold_left (fun acc j -> acc + Transport.demand t j) 0 js in
      let neighbours =
        List.length (List.sort_uniq Int.compare (List.concat_map (fun j -> suppliers.(j)) js))
      in
      if d = 0 then 0.0
      else if neighbours = 0 then infinity
      else float_of_int d /. float_of_int neighbours)

(* The tight set of program (2.1) at radius 0 the way a flow reads it: a
   transport instance in which each support point is its own only
   supplier, one parametric sweep, and the points outside the cut that
   set its answer ([Transport.binding_demands]).  The reference for the
   arithmetic of [Transport.self_served_binding]. *)
let radius0_tight_set dm =
  let support = Array.of_list (Demand_map.support dm) in
  let n = Array.length support in
  let t = Transport.create ~n_suppliers:n ~n_demands:n in
  Array.iteri (fun j p -> Transport.set_demand t j (Demand_map.value dm p)) support;
  for j = 0 to n - 1 do
    Transport.add_link t ~supplier:j ~demand:j
  done;
  ignore (Transport.min_uniform_supply t);
  List.map (fun j -> support.(j)) (Transport.binding_demands t)

(* Lemma 2.2.3: [max_T ω_T] over subsets of a demand map's support. *)
let omega_dual dm =
  let support = Array.of_list (Demand_map.support dm) in
  max_over_subsets ~n:(Array.length support) (fun idx ->
      let points = List.map (fun i -> support.(i)) idx in
      let total = List.fold_left (fun acc p -> acc + Demand_map.value dm p) 0 points in
      Omega.of_points points ~total)

(* The largest demand in a [side]-cube: every support point tested
   against every anchor of the bounding box stretched [side - 1] below. *)
let max_cube_demand dm ~side =
  match Demand_map.bounding_box dm with
  | None -> 0
  | Some b ->
      let anchors =
        Box.make ~lo:(Array.map (fun x -> x - side + 1) b.Box.lo) ~hi:b.Box.hi
      in
      let best = ref 0 in
      Box.iter anchors (fun a ->
          let cube = Box.of_side ~dim:(Box.dim b) ~lo:a ~side in
          let d =
            Demand_map.fold dm ~init:0 ~f:(fun acc p d ->
                if Box.mem cube p then acc + d else acc)
          in
          if d > !best then best := d);
      !best

(* Corollary 2.2.6: [max ω_T] over every cube T, of every side up to the
   bounding box's widest. *)
let omega_over_cubes dm =
  match Demand_map.bounding_box dm with
  | None -> 0.0
  | Some b ->
      let dim = Box.dim b in
      let widest = List.fold_left max 1 (List.init dim (Box.side b)) in
      let best = ref 0.0 in
      for side = 1 to widest do
        let d = max_cube_demand dm ~side in
        if d > 0 then best := Float.max !best (Omega.of_cube ~dim ~side ~total:d)
      done;
      !best

(* [Online]'s grid topology built cube by cube, the way a cropped cube
   would need it: each tile of [Box.partition_cubes] paired by its own
   [Snake.pairing] call, and every cell of the tile tested against every
   other for a link, with [Box.index] naming each cell.  The reference
   for the pattern that [Online.grid_topology] stamps onto whole cubes. *)
let grid_topology (cfg : Online.config) window =
  let cubes = Array.of_list (Box.partition_cubes window ~side:cfg.Online.side) in
  let n = Box.volume window in
  let index = Box.index window in
  let n_cubes = Array.length cubes in
  let ring_off = Array.make (n_cubes + 1) 0 in
  let ring = Array.make n 0 and anchor = Array.make n 0 in
  let partner = Array.make n (-1) and n_pairs = ref 0 in
  let add c a b =
    ring.(!n_pairs) <- c;
    anchor.(!n_pairs) <- a;
    partner.(!n_pairs) <- b;
    incr n_pairs
  in
  Array.iteri
    (fun c cube ->
      ring_off.(c) <- !n_pairs;
      let { Snake.pairs; unpaired } = Snake.pairing cube in
      Array.iter (fun (a, b) -> add c (index a) (index b)) pairs;
      Option.iter (fun a -> add c (index a) (-1)) unpaired)
    cubes;
  ring_off.(n_cubes) <- !n_pairs;
  let n_pairs = !n_pairs in
  (* CSR: count pass, prefix sum, fill pass. *)
  let nbr_off = Array.make (n + 1) 0 in
  let linked p home =
    let d = Point.l1_dist p home in
    d > 0 && d <= cfg.Online.comm_radius
  in
  Array.iter
    (fun cube ->
      Box.iter cube (fun home ->
          let c = ref 0 in
          Box.iter cube (fun p -> if linked p home then incr c);
          nbr_off.(index home + 1) <- !c))
    cubes;
  for i = 1 to n do
    nbr_off.(i) <- nbr_off.(i) + nbr_off.(i - 1)
  done;
  let nbr_ids = Array.make nbr_off.(n) 0 in
  Array.iter
    (fun cube ->
      Box.iter cube (fun home ->
          let at = ref nbr_off.(index home) in
          Box.iter cube (fun p ->
              if linked p home then begin
                nbr_ids.(!at) <- index p;
                incr at
              end)))
    cubes;
  let point = Box.point_of_index window in
  {
    Online.cells = n;
    nbr_off;
    nbr_ids;
    ring_off;
    pair_ring = Array.sub ring 0 n_pairs;
    pair_anchor = Array.sub anchor 0 n_pairs;
    pair_partner = Array.sub partner 0 n_pairs;
    pair_walk = Array.make n_pairs 1;
    dist = (fun a b -> Point.l1_dist (point a) (point b));
    point;
  }

(* Theorem 4.1.1: [max_T ω_T] with longevity-scaled reach.  For one
   subset T, ω_T solves ω · Σ_{i : ‖i-T‖ <= p_i·ω} p_i = D(T); the left
   side is non-decreasing in ω, so a monotone search finds it. *)
let breakdown_dual ~longevity dm =
  let support = Array.of_list (Demand_map.support dm) in
  max_over_subsets ~n:(Array.length support) (fun idx ->
      let points = List.map (fun i -> support.(i)) idx in
      let target =
        float_of_int (List.fold_left (fun acc p -> acc + Demand_map.value dm p) 0 points)
      in
      let covers omega =
        let reach = min 512 (int_of_float (Float.min omega 1e9)) in
        let sum =
          Point.Set.fold
            (fun s acc ->
              let p = Float.max 0.0 (Float.min 1.0 (longevity s)) in
              let d = List.fold_left (fun m x -> min m (Point.l1_dist s x)) max_int points in
              if float_of_int d <= p *. omega then acc +. p else acc)
            (Ball.dilate_set points ~radius:reach)
            0.0
        in
        omega *. sum >= target
      in
      match Bisect.double ~attempts:16 ~start:1.0 covers with
      | None -> infinity
      | Some hi -> Bisect.halve ~tol:1e-6 ~lo:0.0 ~hi covers)

(* The serving protocol's request decoder written the slow way: parse
   the whole payload into a [Json.t] tree, then walk it.  It states the
   rules of [Protocol.request_of_string] on its own: a known member that
   repeats or holds the wrong type is an error, a "scale" member is an
   error, and so is a demand row whose point total does not fit in an
   [int].  Members it does not know are ignored. *)
let request_of_string text =
  let ( let* ) = Result.bind in
  let known = [ "id"; "op"; "dim"; "demand"; "session"; "radius"; "point" ] in
  let ints cells =
    List.fold_right
      (fun cell acc ->
        let* acc = acc in
        match Json.to_int_opt cell with
        | Some i -> Ok (i :: acc)
        | None -> Error "non-integer cell")
      cells (Ok [])
  in
  let typed name project fields =
    match List.assoc_opt name fields with
    | None -> Ok None
    | Some v -> (
        match project v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "ill-typed member %S" name))
  in
  let int_list v = Option.bind (Json.to_list_opt v) (fun l -> Result.to_option (ints l)) in
  let* j = Json.of_string text in
  let* fields = Option.to_result ~none:"not an object" (Json.to_obj_opt j) in
  let keys = List.map fst fields in
  let* () =
    if List.mem "scale" keys then Error "scale"
    else if
      List.exists (fun k -> List.length (List.filter (String.equal k) keys) > 1) known
    then Error "repeated member"
    else Ok ()
  in
  let* id = typed "id" Json.to_int_opt fields in
  let* name = typed "op" Json.to_string_opt fields in
  let* dim = typed "dim" Json.to_int_opt fields in
  let* session = typed "session" Json.to_string_opt fields in
  let* radius = typed "radius" Json.to_int_opt fields in
  let* point = typed "point" int_list fields in
  let* rows =
    typed "demand"
      (fun v ->
        Option.bind (Json.to_list_opt v) (fun rows ->
            Result.to_option
              (List.fold_right
                 (fun row acc ->
                   let* acc = acc in
                   match int_list row with
                   | Some cells -> Ok (cells :: acc)
                   | None -> Error "bad row")
                 rows (Ok []))))
      fields
  in
  let* id = Option.to_result ~none:"missing id" id in
  let* name = Option.to_result ~none:"missing op" name in
  let dim = Option.value dim ~default:2 in
  let* () = if dim >= 1 then Ok () else Error "dim below 1" in
  let point () =
    match point with
    | Some p when List.length p = dim -> Ok (Array.of_list p)
    | _ -> Error "bad point"
  in
  let* op =
    match name with
    | "omega_star" -> Ok Protocol.Omega_star
    | "lp_value" -> (
        match radius with
        | Some r when r >= 0 -> Ok (Protocol.Lp_value r)
        | _ -> Error "bad radius")
    | "witness" -> Ok Protocol.Witness
    | "ping" -> Ok Protocol.Ping
    | "shutdown" -> Ok Protocol.Shutdown
    | "session_add" -> Result.map (fun p -> Protocol.Session_add p) (point ())
    | "session_remove" -> Result.map (fun p -> Protocol.Session_remove p) (point ())
    | "session_query" -> Ok Protocol.Session_query
    | _ -> Error "unknown op"
  in
  let* demand =
    List.fold_left
      (fun acc cells ->
        let* dm = acc in
        if List.length cells <> dim + 1 then Error "row width"
        else
          match List.rev cells with
          | v :: coords when v >= 0 -> (
              match Demand_map.add dm (Array.of_list (List.rev coords)) v with
              | dm -> Ok dm
              | exception Energy.Overflow m -> Error m)
          | _ -> Error "negative value")
      (Ok (Demand_map.empty dim))
      (Option.value rows ~default:[])
  in
  Ok (Protocol.request ?session ~id op demand)

(* [Demand_map] as it was before it became two sorted arrays: a balanced
   map from point to demand, built one [update] at a time.  It raises
   what [Demand_map] raises, messages included, so a differential test
   can compare failures too. *)
module Demand = struct
  module Points = Map.Make (struct
    type t = Point.t

    let compare = Point.compare
  end)

  type t = { l : int; map : int Points.t }

  let empty l =
    if l <= 0 then invalid_arg "Demand_map.empty: dimension must be positive";
    { l; map = Points.empty }

  let add t x k =
    if k < 0 then invalid_arg "Demand_map.add: negative demand";
    if Point.dim x <> t.l then invalid_arg "Demand_map.add: dimension mismatch";
    if k = 0 then t
    else
      {
        t with
        map =
          Points.update x (function None -> Some k | Some v -> Some (Energy.add v k)) t.map;
      }

  let remove t x k =
    if k < 0 then invalid_arg "Demand_map.remove: negative demand";
    if Point.dim x <> t.l then invalid_arg "Demand_map.remove: dimension mismatch";
    if k = 0 then t
    else
      let v = match Points.find_opt x t.map with None -> 0 | Some v -> v in
      if k > v then invalid_arg "Demand_map.remove: demand would become negative"
      else if k = v then { t with map = Points.remove x t.map }
      else { t with map = Points.add x (v - k) t.map }

  let of_alist l alist = List.fold_left (fun t (x, k) -> add t x k) (empty l) alist
  let of_jobs l jobs = List.fold_left (fun t x -> add t x 1) (empty l) jobs
  let dim t = t.l
  let value t x = match Points.find_opt x t.map with None -> 0 | Some v -> v
  let support t = List.map fst (Points.bindings t.map)
  let support_size t = Points.cardinal t.map
  let is_empty t = Points.is_empty t.map
  let total t = Points.fold (fun _ v acc -> Energy.add acc v) t.map 0
  let max_demand t = Points.fold (fun _ v acc -> max v acc) t.map 0
  let bounding_box t = Box.hull (support t)
  let equal a b = a.l = b.l && Points.equal Int.equal a.map b.map
  let fold t ~init ~f = Points.fold (fun p v acc -> f acc p v) t.map init
end
