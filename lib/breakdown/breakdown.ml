type longevity = Point.t -> float

let clamp01 p = Float.max 0.0 (Float.min 1.0 p)

(* Supplier capacities p_i·ω are rounded down to multiples of 1/resolution,
   with demands scaled to match, so feasibility is an integer max-flow.
   This grid is this module's own; it is unrelated to the LP grid of
   [Transport.min_uniform_supply]. *)
let resolution = 1000

(* Feasibility of the longevity-scaled transport at capacity ω: supplier i
   may emit p_i·ω units within radius ⌊p_i·ω⌋. *)
let feasible_at ~search_radius ~longevity dm omega =
  let support = Array.of_list (Demand_map.support dm) in
  let max_radius = min search_radius (int_of_float (Float.min omega 1e9)) in
  let suppliers =
    Ball.dilate_set (Array.to_list support) ~radius:max_radius
    |> Point.Set.elements |> Array.of_list
  in
  let inst =
    Transport.create ~n_suppliers:(Array.length suppliers)
      ~n_demands:(Array.length support)
  in
  Array.iteri
    (fun j p -> Transport.set_demand inst j (Demand_map.value dm p * resolution))
    support;
  let caps = Array.make (Array.length suppliers) 0 in
  Array.iteri
    (fun i s ->
      let p = clamp01 (longevity s) in
      let reach = int_of_float (Float.floor (p *. omega)) in
      caps.(i) <- int_of_float (Float.floor (p *. omega *. float_of_int resolution));
      if caps.(i) > 0 then
        Array.iteri
          (fun j x ->
            if Point.l1_dist s x <= reach then
              Transport.add_link inst ~supplier:i ~demand:j)
          support)
    suppliers;
  Transport.max_served inst ~supply:(fun i -> caps.(i))
  = Demand_map.total dm * resolution

let lp_lower_bound ?(precision = 1e-3) ?(search_radius = 512) ~longevity dm =
  if Demand_map.total dm = 0 then 0.0
  else begin
    let feasible = feasible_at ~search_radius ~longevity dm in
    (* Doubling search for a feasible capacity.  Suppliers are only sought
       within [search_radius] of the support, so capacities beyond that
       radius cannot enlist anyone new: if the transport is still
       infeasible there, report it unbounded (e.g. all-dead instances). *)
    let cap = 2.0 *. float_of_int search_radius in
    match Bisect.double ~cap ~start:1.0 feasible with
    | None -> infinity
    | Some hi -> Bisect.halve ~tol:precision ~lo:0.0 ~hi feasible
  end

module Figure41 = struct
  type t = { r1 : int; r2 : int }

  let make ~r1 ~r2 =
    if r1 < 1 then invalid_arg "Figure41.make: r1 must be >= 1";
    if r2 <= (4 * r1 * r1) + r1 then
      invalid_arg
        "Figure41.make: need r2 > 4*r1^2 + r1 so outside vehicles stay out of play";
    { r1; r2 }

  let point_i t = [| -t.r1; 0 |]
  let point_j t = [| t.r1; 0 |]
  let center = [| 0; 0 |]

  let demand t =
    Demand_map.of_alist 2 [ (point_i t, t.r1); (point_j t, t.r1) ]

  let longevity t p =
    if Point.equal p center then 1.0
    else if Point.l1_dist p center <= t.r1 + t.r2 then 0.0
    else 1.0

  let lp_bound t = 2.0 *. float_of_int t.r1

  let shuttle_requirement t =
    let r1 = t.r1 in
    (* walk to the first demand, serve 2·r1 unit jobs, and cross the
       2·r1 gap between the demand points 2·r1 - 1 times *)
    r1 + (2 * r1) + (((2 * r1) - 1) * 2 * r1)

  let jobs t =
    Array.init (2 * t.r1) (fun k -> if k mod 2 = 0 then point_i t else point_j t)

  let simulate_shuttle t ~capacity =
    let energy = ref capacity and pos = ref center in
    let ok = ref true in
    Array.iter
      (fun x ->
        let cost = float_of_int (Point.l1_dist !pos x + 1) in
        energy := !energy -. cost;
        pos := x;
        if !energy < 0.0 then ok := false)
      (jobs t);
    !ok
end
