type config = { capacity : float; seed : int }

type outcome = {
  served : int;
  failed : int;
  messages : int;
  replacements : int;
  computations : int;
  starved_searches : int;
  max_energy_used : float;
}

let succeeded o = o.failed = 0

type msg =
  | Query of { init : int * int }
  | Reply of { init : int * int; flag : bool }
  | Move of { init : int * int; dest : int; pair : int }
  | Monitor_timeout of { pair : int }

type working = Idle | Active | Done
type transfer = Waiting | Searching | Initiator

type vehicle = {
  id : int;
  mutable pos : int;
  mutable energy : float;
  mutable working : working;
  mutable transfer : transfer;
  mutable pair : int;
  mutable par : int;
  mutable child : int;
  mutable init : (int * int) option;
  mutable num : int;
}

type pair_state = {
  pair_id : int;
  cluster : int;
  cells : int array; (* one or two adjacent vertices *)
  edge_w : int; (* weight of the pair edge; 0 for singletons *)
  mutable active : int;
}

type world = {
  inst : Gcmvrp.t;
  cfg : config;
  vehicles : vehicle array;
  pairs : pair_state array;
  pair_of_vertex : int array;
  neighbors : int list array; (* same-cluster graph adjacency *)
  cluster_pairs : int array array;
  des : msg Des.t;
  phase2 : (int, int) Hashtbl.t; (* pending initiator id -> pair id *)
  mutable seq : int;
  mutable served : int;
  mutable failed : int;
  mutable computations : int;
  mutable replacements : int;
  mutable starved : int;
}

(* --- clustering: greedy demand-ball cover, then absorb stragglers --- *)

let clusters_of inst =
  let n = Gcmvrp.n_vertices inst in
  let star = Gcmvrp.omega_star inst in
  let radius = max 1 (int_of_float (Float.ceil star)) in
  let cluster_of = Array.make n (-1) in
  let n_clusters = ref 0 in
  let rec cover () =
    let center = ref (-1) in
    for v = 0 to n - 1 do
      if
        cluster_of.(v) = -1
        && Gcmvrp.demand inst v > 0
        && (!center = -1 || Gcmvrp.demand inst v > Gcmvrp.demand inst !center)
      then center := v
    done;
    if !center >= 0 then begin
      let id = !n_clusters in
      incr n_clusters;
      for v = 0 to n - 1 do
        let d = Gcmvrp.distance inst !center v in
        if cluster_of.(v) = -1 && d <> max_int && d <= radius then
          cluster_of.(v) <- id
      done;
      cover ()
    end
  in
  cover ();
  (* Absorb unclustered vertices into the nearest clustered one; isolated
     leftovers become singleton clusters. *)
  for v = 0 to n - 1 do
    if cluster_of.(v) = -1 then begin
      let best = ref (-1) and best_d = ref max_int in
      for u = 0 to n - 1 do
        if cluster_of.(u) >= 0 then begin
          let d = Gcmvrp.distance inst v u in
          if d < !best_d then begin
            best_d := d;
            best := u
          end
        end
      done;
      if !best >= 0 && !best_d <> max_int then cluster_of.(v) <- cluster_of.(!best)
      else begin
        cluster_of.(v) <- !n_clusters;
        incr n_clusters
      end
    end
  done;
  (cluster_of, !n_clusters)

let build inst cfg =
  let n = Gcmvrp.n_vertices inst in
  let cluster_of, n_clusters = clusters_of inst in
  (* Greedy maximal matching within each cluster. *)
  let matched = Array.make n (-1) in
  let pairs = ref [] and n_pairs = ref 0 in
  let pair_of_vertex = Array.make n (-1) in
  let graph = Gcmvrp.graph_of inst in
  for v = 0 to n - 1 do
    if matched.(v) = -1 then begin
      let partner = ref (-1) and partner_w = ref 0 in
      Digraph.iter_succ graph v (fun ~dst ~weight ->
          if !partner = -1 && matched.(dst) = -1 && dst <> v
             && cluster_of.(dst) = cluster_of.(v) then begin
            partner := dst;
            partner_w := weight
          end);
      let pid = !n_pairs in
      incr n_pairs;
      if !partner >= 0 then begin
        matched.(v) <- !partner;
        matched.(!partner) <- v;
        pair_of_vertex.(v) <- pid;
        pair_of_vertex.(!partner) <- pid;
        pairs :=
          {
            pair_id = pid;
            cluster = cluster_of.(v);
            cells = [| v; !partner |];
            edge_w = !partner_w;
            active = v;
          }
          :: !pairs
      end
      else begin
        matched.(v) <- v;
        pair_of_vertex.(v) <- pid;
        pairs :=
          { pair_id = pid; cluster = cluster_of.(v); cells = [| v |]; edge_w = 0; active = v }
          :: !pairs
      end
    end
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let cluster_pairs =
    Array.init n_clusters (fun c ->
        Array.of_list
          (List.filter_map
             (fun pr -> if pr.cluster = c then Some pr.pair_id else None)
             (Array.to_list pairs)))
  in
  let vehicles =
    Array.init n (fun id ->
        {
          id;
          pos = id;
          energy = cfg.capacity;
          working = Idle;
          transfer = Waiting;
          pair = pair_of_vertex.(id);
          par = -1;
          child = -1;
          init = None;
          num = 0;
        })
  in
  Array.iter
    (fun pr -> vehicles.(pr.cells.(0)).working <- Active)
    pairs;
  let neighbors =
    Array.init n (fun v ->
        List.filter_map
          (fun (u, _) -> if cluster_of.(u) = cluster_of.(v) then Some u else None)
          (Digraph.succ graph v))
  in
  {
    inst;
    cfg;
    vehicles;
    pairs;
    pair_of_vertex;
    neighbors;
    cluster_pairs;
    des = Des.create ~rng:(Rng.create cfg.seed) ();
    phase2 = Hashtbl.create 8;
    seq = 0;
    served = 0;
    failed = 0;
    computations = 0;
    replacements = 0;
    starved = 0;
  }

(* --- Algorithm 2, verbatim modulo the vertex/cluster vocabulary --- *)

let start_computation w ~initiator ~pair_id =
  let v = initiator in
  w.computations <- w.computations + 1;
  w.seq <- w.seq + 1;
  let init = (v.id, w.seq) in
  v.init <- Some init;
  v.par <- -1;
  v.child <- -1;
  let ns = w.neighbors.(v.id) in
  v.num <- List.length ns;
  if v.num = 0 then w.starved <- w.starved + 1
  else begin
    v.transfer <- Initiator;
    Hashtbl.replace w.phase2 v.id pair_id;
    List.iter (fun q -> Des.send w.des ~src:v.id ~dst:q (Query { init })) ns
  end

let complete_initiator w v =
  v.transfer <- Waiting;
  match Hashtbl.find_opt w.phase2 v.id with
  | None -> ()
  | Some pair_id ->
      Hashtbl.remove w.phase2 v.id;
      if v.child >= 0 then
        Des.send w.des ~src:v.id ~dst:v.child
          (Move { init = Option.get v.init; dest = w.pairs.(pair_id).cells.(0); pair = pair_id })
      else w.starved <- w.starved + 1

let handle_query w p ~src init =
  if p.transfer = Waiting && p.init <> Some init then begin
    p.par <- src;
    p.init <- Some init;
    p.child <- -1;
    if p.working = Idle then
      Des.send w.des ~src:p.id ~dst:src (Reply { init; flag = true })
    else begin
      let ns = w.neighbors.(p.id) in
      p.num <- List.length ns;
      if p.num = 0 then
        Des.send w.des ~src:p.id ~dst:src (Reply { init; flag = false })
      else begin
        p.transfer <- Searching;
        List.iter (fun q -> Des.send w.des ~src:p.id ~dst:q (Query { init })) ns
      end
    end
  end
  else Des.send w.des ~src:p.id ~dst:src (Reply { init; flag = false })

let handle_reply w p ~src init flag =
  if p.init = Some init && p.transfer <> Waiting then begin
    p.num <- p.num - 1;
    if flag && p.child < 0 then begin
      p.child <- src;
      if p.par >= 0 then
        Des.send w.des ~src:p.id ~dst:p.par (Reply { init; flag = true })
    end;
    if p.num = 0 then begin
      match p.transfer with
      | Initiator -> complete_initiator w p
      | Searching ->
          p.transfer <- Waiting;
          if p.child < 0 && p.par >= 0 then
            Des.send w.des ~src:p.id ~dst:p.par (Reply { init; flag = false })
      | Waiting -> ()
    end
  end

let handle_move w p init ~dest ~pair_id =
  if p.working = Idle then begin
    let d = Gcmvrp.distance w.inst p.pos dest in
    p.energy <- p.energy -. float_of_int d;
    p.pos <- dest;
    p.working <- Active;
    p.pair <- pair_id;
    w.pairs.(pair_id).active <- p.id;
    w.replacements <- w.replacements + 1
  end
  else if p.child >= 0 then
    Des.send w.des ~src:p.id ~dst:p.child (Move { init; dest; pair = pair_id })
  else w.starved <- w.starved + 1

let monitor_of w ~pair_id =
  let order = w.cluster_pairs.(w.pairs.(pair_id).cluster) in
  let n = Array.length order in
  let start =
    let rec find i = if order.(i) = pair_id then i else find (i + 1) in
    find 0
  in
  let rec scan k =
    if k >= n then None
    else begin
      let candidate = w.pairs.(order.((start + k) mod n)).active in
      if candidate >= 0 then Some candidate else scan (k + 1)
    end
  in
  scan 1

let handle_monitor_timeout w m ~pair_id =
  let pr = w.pairs.(pair_id) in
  if pr.active < 0 then begin
    let mv = w.vehicles.(m) in
    if mv.transfer = Waiting then start_computation w ~initiator:mv ~pair_id
    else
      match monitor_of w ~pair_id with
      | None -> w.starved <- w.starved + 1
      | Some m' ->
          Des.send_after w.des ~delay:50.0 ~src:m' ~dst:m' (Monitor_timeout { pair = pair_id })
  end

let retire w v =
  v.working <- Done;
  let pair_id = v.pair in
  w.pairs.(pair_id).active <- -1;
  start_computation w ~initiator:v ~pair_id

let process_job w x =
  let pair_id = w.pair_of_vertex.(x) in
  let pr = w.pairs.(pair_id) in
  if pr.active < 0 then w.failed <- w.failed + 1
  else begin
    let v = w.vehicles.(pr.active) in
    let cost = float_of_int (Gcmvrp.distance w.inst v.pos x + 1) in
    if v.energy < cost -. 1e-9 then w.failed <- w.failed + 1
    else begin
      v.energy <- v.energy -. cost;
      v.pos <- x;
      w.served <- w.served + 1;
      (* Retirement threshold: enough for one more pair job. *)
      if v.working = Active && v.energy < float_of_int (pr.edge_w + 1) then retire w v
    end
  end

let dispatch w ~time:_ ~src ~dst msg =
  let p = w.vehicles.(dst) in
  match msg with
  | Query { init } -> handle_query w p ~src init
  | Reply { init; flag } -> handle_reply w p ~src init flag
  | Move { init; dest; pair } -> handle_move w p init ~dest ~pair_id:pair
  | Monitor_timeout { pair } -> handle_monitor_timeout w dst ~pair_id:pair

let run inst ~jobs cfg =
  if cfg.capacity <= 0.0 then invalid_arg "Gonline.run: capacity must be positive";
  let w = build inst cfg in
  let quiesce () =
    let (_ : Des.outcome) = Des.run_until_quiescent w.des ~handler:(dispatch w) in
    ()
  in
  Array.iter
    (fun x ->
      if x < 0 || x >= Gcmvrp.n_vertices inst then
        invalid_arg "Gonline.run: job outside the graph";
      process_job w x;
      quiesce ())
    jobs;
  {
    served = w.served;
    failed = w.failed;
    messages = Des.messages_delivered w.des;
    replacements = w.replacements;
    computations = w.computations;
    starved_searches = w.starved;
    max_energy_used =
      Array.fold_left
        (fun acc v -> Float.max acc (cfg.capacity -. v.energy))
        0.0 w.vehicles;
  }

let recommended_capacity inst =
  ((4.0 *. 9.0) +. 2.0) *. Float.max 1.0 (Gcmvrp.omega_star inst) +. 4.0

let min_feasible_capacity ?(tol = 0.25) ?(seed = 0) inst ~jobs =
  let ok capacity = succeeded (run inst ~jobs { capacity; seed }) in
  Bisect.least ~tol ~start:4.0 ~attempts:30 ok
