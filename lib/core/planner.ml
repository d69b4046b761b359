type assignment = {
  home : Point.t;
  serve_at_home : int;
  target : (Point.t * int) option;
}

type t = {
  dim : int;
  omega : float;
  side : int;
  budget : int;
  window : Box.t;
  assignments : assignment list;
}

let plan_cube dm ~budget cube =
  (* Home service first. *)
  let residuals = ref [] in
  let helpers_needed = ref 0 in
  let assignments = ref [] in
  Box.iter cube (fun p ->
      let d = Demand_map.value dm p in
      if d > 0 then begin
        let at_home = min d budget in
        assignments := { home = p; serve_at_home = at_home; target = None } :: !assignments;
        let residual = d - at_home in
        if residual > 0 then begin
          residuals := (p, residual) :: !residuals;
          helpers_needed := !helpers_needed + ((residual + budget - 1) / budget)
        end
      end);
  (* Helper pool: every vehicle of the cube relocates at most once.  Those
     already listed above keep their home service and gain a target; the
     rest start fresh. *)
  if !helpers_needed > Box.volume cube then
    failwith "Planner.plan: headcount guarantee violated (Corollary 2.2.7)";
  let served_home = Point.Tbl.create 64 in
  List.iter (fun a -> Point.Tbl.replace served_home a.home a) !assignments;
  let pool = Queue.create () in
  Box.iter cube (fun p -> Queue.add p pool);
  let final = ref [] in
  let take_helper () =
    (* Vehicles are used in cube order; each appears exactly once. *)
    Queue.pop pool
  in
  List.iter
    (fun (x, residual) ->
      let remaining = ref residual in
      while !remaining > 0 do
        let h = take_helper () in
        let amount = min !remaining budget in
        remaining := !remaining - amount;
        let at_home =
          match Point.Tbl.find_opt served_home h with
          | Some a ->
              Point.Tbl.remove served_home h;
              a.serve_at_home
          | None -> 0
        in
        final := { home = h; serve_at_home = at_home; target = Some (x, amount) } :: !final
      done)
    !residuals;
  (* Vehicles that served at home but were not drafted as helpers. *)
  Point.Tbl.iter (fun _ a -> final := a :: !final) served_home;
  !final

let plan dm =
  let dim = Demand_map.dim dm in
  let omega, side = Omega.cube_fixpoint_with_side dm in
  match Demand_map.bounding_box dm with
  | None ->
      {
        dim;
        omega;
        side;
        budget = 0;
        window = Box.cube_at_origin ~dim ~side:1;
        assignments = [];
      }
  | Some bbox ->
      let budget =
        max 1 (int_of_float (Float.ceil (float_of_int (Energy.pow 3 dim) *. omega)))
      in
      let window = Box.tiled bbox ~side in
      let cubes = Box.partition_cubes window ~side in
      (* Cubes are independent (plan_cube only reads the demand map), so
         they fan out through the Domain pool; results come back in cube
         order, keeping the plan deterministic. *)
      let assignments =
        Pool.map (fun cube -> plan_cube dm ~budget cube) (Array.of_list cubes)
        |> Array.to_list |> List.concat
      in
      { dim; omega; side; budget; window; assignments }

let energy_of a =
  let travel = match a.target with None -> 0 | Some (p, _) -> Point.l1_dist a.home p in
  let remote = match a.target with None -> 0 | Some (_, k) -> k in
  Energy.sum [ a.serve_at_home; travel; remote ]

let max_energy t =
  List.fold_left (fun acc a -> max acc (energy_of a)) 0 t.assignments

let energy_bound t =
  float_of_int (2 * t.budget) +. float_of_int (t.dim * (t.side - 1))

let theorem_bound ~dim omega =
  float_of_int (Energy.add (Energy.scale 2 (Energy.pow 3 dim)) dim) *. omega

let validate t dm =
  let ( let* ) r f = Result.bind r f in
  (* Each vehicle appears at most once. *)
  let seen = Point.Tbl.create 64 in
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        if Point.Tbl.mem seen a.home then
          Error (Printf.sprintf "vehicle %s assigned twice" (Point.to_string a.home))
        else begin
          Point.Tbl.replace seen a.home ();
          Ok ()
        end)
      (Ok ()) t.assignments
  in
  (* Energy and confinement. *)
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        if float_of_int (energy_of a) > energy_bound t +. 1e-9 then
          Error
            (Printf.sprintf "vehicle %s exceeds the energy bound: %d > %.3f"
               (Point.to_string a.home) (energy_of a) (energy_bound t))
        else begin
          match a.target with
          | None -> Ok ()
          | Some (p, _) ->
              let cube = Box.containing_cube t.window ~side:t.side a.home in
              if Box.mem cube p then Ok ()
              else
                Error
                  (Printf.sprintf "vehicle %s leaves its cube" (Point.to_string a.home))
        end)
      (Ok ()) t.assignments
  in
  (* Exact service. *)
  let served = Point.Tbl.create 64 in
  let bump p k =
    Point.Tbl.replace served p (k + Option.value ~default:0 (Point.Tbl.find_opt served p))
  in
  List.iter
    (fun a ->
      if a.serve_at_home > 0 then bump a.home a.serve_at_home;
      match a.target with None -> () | Some (p, k) -> bump p k)
    t.assignments;
  let mismatch = ref None in
  Demand_map.iter dm (fun p d ->
      let got = Option.value ~default:0 (Point.Tbl.find_opt served p) in
      if got <> d && !mismatch = None then
        mismatch :=
          Some (Printf.sprintf "position %s served %d of %d" (Point.to_string p) got d));
  Point.Tbl.iter
    (fun p got ->
      if Demand_map.value dm p <> got && !mismatch = None then
        mismatch :=
          Some
            (Printf.sprintf "position %s over-served: %d vs demand %d"
               (Point.to_string p) got (Demand_map.value dm p)))
    served;
  match !mismatch with None -> Ok () | Some msg -> Error msg
