(* Lattice points at L1 distance exactly r from a vertex of Z^dim:
   the difference of consecutive ball volumes around a side-1 cube. *)
let shell ~dim r =
  if r < 0 then 0
  else if r = 0 then 1
  else
    let point = Box.cube_at_origin ~dim ~side:1 in
    Ball.box_ball_volume point ~radius:r
    - Ball.box_ball_volume point ~radius:(r - 1)

let point_deliverable ~dim ~w =
  if w <= 0.0 then 0.0
  else begin
    let m = int_of_float (Float.floor w) in
    let acc = ref 0.0 in
    for r = 0 to m do
      acc := !acc +. (float_of_int (shell ~dim r) *. (w -. float_of_int r))
    done;
    !acc
  end

let point_capacity ~dim ~demand =
  if demand < 0 then invalid_arg "Exact.point_capacity: negative demand";
  if demand = 0 then 0.0
  else begin
    let target = float_of_int demand in
    (* Inside the bracket [m, m+1) the deliverable energy is linear in w:
       w·V(m) - Σ_{r<=m} r·shell(r).  Scan brackets for the first that can
       reach the target; the scan visits m = 0, 1, ... in order, so the
       two sums are kept running. *)
    let volume = ref 0 (* V(m) = Σ_{r<=m} shell(r) *)
    and weighted = ref 0 (* Σ_{r<=m} r·shell(r) *) in
    Omega.scan_brackets (fun m ->
        let s = shell ~dim m in
        volume := !volume + s;
        weighted := !weighted + (m * s);
        (target +. float_of_int !weighted) /. float_of_int !volume)
  end

(* Optimal open-route length from [home] through a multiset of sites:
   exhaustive over permutations (sites are deduplicated first; at most a
   handful in a tiny instance). *)
let optimal_route_length ~home sites =
  let distinct = Point.Set.elements (Point.Set.of_list sites) in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> not (Point.equal x y)) xs in
            List.map (fun p -> x :: p) (perms rest))
          xs
  in
  match distinct with
  | [] -> 0
  | _ ->
      List.fold_left
        (fun best order ->
          let len, _ =
            List.fold_left
              (fun (acc, at) p -> (acc + Point.l1_dist at p, p))
              (0, home) order
          in
          min best len)
        max_int (perms distinct)

let tiny_woff ?(max_units = 6) dm ~window =
  let total = Demand_map.total dm in
  let vehicles = Box.points window in
  if total > max_units || List.length vehicles > 16 then None
  else if total = 0 then Some 0
  else begin
    let ok =
      List.for_all (fun p -> Box.mem window p)
        (Demand_map.support dm)
    in
    if not ok then invalid_arg "Exact.tiny_woff: support outside the window";
    (* The unit list, site repeated d(x) times. *)
    let units =
      Demand_map.fold dm ~init:[] ~f:(fun acc p d ->
          List.init d (fun _ -> p) @ acc)
    in
    let homes = Array.of_list vehicles in
    let n = Array.length homes in
    let loads = Array.make n [] in
    let energy v =
      Energy.add (optimal_route_length ~home:homes.(v) loads.(v)) (List.length loads.(v))
    in
    let best = ref max_int in
    (* Branch and bound: assign units one by one; prune on the running
       peak.  Units at the same site are interchangeable, so only the
       site sequence matters — we sort units to group them, which the
       fold above already does. *)
    let rec assign remaining peak =
      if peak >= !best then ()
      else
        match remaining with
        | [] -> best := peak
        | site :: rest ->
            for v = 0 to n - 1 do
              loads.(v) <- site :: loads.(v);
              let e = energy v in
              assign rest (max peak e);
              loads.(v) <- List.tl loads.(v)
            done
    in
    assign units 0;
    Some !best
  end
