type customer = { location : Point.t; amount : int }

type route = { stops : Point.t list }

type solution = { depot : Point.t; routes : route list; capacity : int }

let customers_of_demand dm =
  Demand_map.fold dm ~init:[] ~f:(fun acc p d ->
      if d > 0 then { location = p; amount = d } :: acc else acc)
  |> List.rev

let route_demand dm route =
  List.fold_left (fun acc p -> acc + Demand_map.value dm p) 0 route.stops

let route_travel ~depot route = Tour.cycle_length (depot :: route.stops)

let route_energy ~dm ~depot route = route_travel ~depot route + route_demand dm route

let total_travel sol =
  List.fold_left (fun acc r -> acc + route_travel ~depot:sol.depot r) 0 sol.routes

let max_route_energy ~dm sol =
  List.fold_left
    (fun acc r -> max acc (route_energy ~dm ~depot:sol.depot r))
    0 sol.routes

let centroid dm =
  match Demand_map.bounding_box dm with
  | None -> invalid_arg "Cvrp.centroid: empty demand"
  | Some bbox ->
      let dim = Box.dim bbox in
      let sums = Array.make dim 0 and total = ref 0 in
      Demand_map.iter dm (fun p d ->
          total := !total + d;
          for i = 0 to dim - 1 do
            sums.(i) <- sums.(i) + (d * p.(i))
          done);
      Array.map (fun s -> s / max 1 !total) sums

(* --- Clarke–Wright savings --- *)

let clarke_wright ~dm ~depot ~capacity =
  if capacity <= 0 then invalid_arg "Cvrp.clarke_wright: capacity must be positive";
  let customers = Array.of_list (customers_of_demand dm) in
  let n = Array.length customers in
  Array.iter
    (fun c ->
      if c.amount > capacity then
        invalid_arg "Cvrp.clarke_wright: a customer exceeds the route capacity")
    customers;
  (* Route representation: for each customer index, the route id; per
     route, a deque of customer indices plus its load. *)
  let route_of = Array.init n (fun i -> i) in
  let stops = Array.init n (fun i -> [ i ]) in
  let load = Array.init n (fun i -> customers.(i).amount) in
  let alive = Array.make n true in
  let d0 i = Point.l1_dist depot customers.(i).location in
  let dist i j = Point.l1_dist customers.(i).location customers.(j).location in
  (* All candidate savings, largest first. *)
  let savings = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s = d0 i + d0 j - dist i j in
      if s > 0 then savings := (s, i, j) :: !savings
    done
  done;
  let savings =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) !savings
  in
  let find_root i = route_of.(i) in
  let endpoints r =
    match stops.(r) with
    | [] -> None
    | [ x ] -> Some (x, x)
    | x :: rest ->
        let rec last = function [ y ] -> y | _ :: t -> last t | [] -> assert false in
        Some (x, last rest)
  in
  let merge r1 r2 ~flip1 ~flip2 =
    (* Append r2 after r1, possibly reversing either, into r1. *)
    let s1 = if flip1 then List.rev stops.(r1) else stops.(r1) in
    let s2 = if flip2 then List.rev stops.(r2) else stops.(r2) in
    stops.(r1) <- s1 @ s2;
    load.(r1) <- load.(r1) + load.(r2);
    List.iter (fun c -> route_of.(c) <- r1) s2;
    (* Reversal may have reassigned members of r1 too. *)
    List.iter (fun c -> route_of.(c) <- r1) s1;
    alive.(r2) <- false
  in
  List.iter
    (fun (_, i, j) ->
      let r1 = find_root i and r2 = find_root j in
      if r1 <> r2 && alive.(r1) && alive.(r2) && load.(r1) + load.(r2) <= capacity
      then begin
        match (endpoints r1, endpoints r2) with
        | Some (h1, t1), Some (h2, t2) ->
            (* The merge is only admissible when i and j are endpoints of
               their routes (interior links would break the paths). *)
            let i_head = i = h1 and i_tail = i = t1 in
            let j_head = j = h2 and j_tail = j = t2 in
            if (i_head || i_tail) && (j_head || j_tail) then begin
              (* Orient r1 so i is its tail and r2 so j is its head. *)
              let flip1 = i_head && not i_tail in
              let flip2 = j_tail && not j_head in
              merge r1 r2 ~flip1 ~flip2
            end
        | _ -> ()
      end)
    savings;
  let routes = ref [] in
  for r = n - 1 downto 0 do
    if alive.(r) then
      routes :=
        { stops = List.map (fun i -> customers.(i).location) stops.(r) } :: !routes
  done;
  { depot; routes = !routes; capacity }

let validate ~dm sol =
  let visits = Point.Tbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Point.Tbl.replace visits p
            (1 + Option.value ~default:0 (Point.Tbl.find_opt visits p)))
        r.stops)
    sol.routes;
  let problem = ref None in
  Demand_map.iter dm (fun p d ->
      if d > 0 && Point.Tbl.find_opt visits p <> Some 1 && !problem = None then
        problem :=
          Some
            (Printf.sprintf "customer %s visited %d times" (Point.to_string p)
               (Option.value ~default:0 (Point.Tbl.find_opt visits p))));
  List.iter
    (fun r ->
      if route_demand dm r > sol.capacity && !problem = None then
        problem := Some "route exceeds capacity")
    sol.routes;
  match !problem with None -> Ok () | Some msg -> Error msg
