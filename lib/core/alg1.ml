type result = { value : float; cube_side : int option; cell_ops : int }

let m_cell_ops = Metrics.counter "alg1.cell_ops"
let m_coarsen_levels = Metrics.counter "alg1.coarsen_levels"
let m_run = Metrics.timer "alg1.run"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let approximation_factor l = 2.0 *. float_of_int ((2 * Energy.pow 3 l) + l)

let run_raw ~dim ~n dm =
  if dim <= 0 then invalid_arg "Alg1.run: dimension must be positive";
  if not (is_power_of_two n) then invalid_arg "Alg1.run: n must be a power of two";
  if Demand_map.dim dm <> dim then invalid_arg "Alg1.run: dimension mismatch";
  let grid = Box.cube_at_origin ~dim ~side:n in
  let ops = ref 0 in
  (* Flatten the demand into the finest-scale array d_1. *)
  let cells = Energy.pow n dim in
  let finest = Array.make cells 0 in
  Demand_map.iter dm (fun p v ->
      if not (Box.mem grid p) then invalid_arg "Alg1.run: support outside the grid";
      finest.(Box.index grid p) <- finest.(Box.index grid p) + v);
  ops := !ops + cells;
  let total = Array.fold_left ( + ) 0 finest in
  let max_d = Array.fold_left max 0 finest in
  ops := !ops + cells;
  let d_hat = float_of_int total /. float_of_int cells in
  let fallback = Float.min (float_of_int max_d)
      ((2.0 *. d_hat) +. float_of_int (dim * n))
  in
  (* Properties 2.3.3 and 2.3.2. *)
  if float_of_int n <= d_hat then { value = fallback; cube_side = None; cell_ops = !ops }
  else if max_d <= 1 then
    { value = float_of_int max_d; cube_side = None; cell_ops = !ops }
  else begin
    (* Main loop: coarsen by 2 per axis until every w-block fits its
       radius-w budget w·(3w)^dim. *)
    let rec loop ~w ~n' ~(coarse : int array) =
      if w = n then { value = fallback; cube_side = None; cell_ops = !ops }
      else begin
        Metrics.incr m_coarsen_levels;
        let w = 2 * w and n' = n' / 2 in
        let child_box = Box.cube_at_origin ~dim ~side:(2 * n') in
        let parent_box = Box.cube_at_origin ~dim ~side:n' in
        let next = Array.make (Energy.pow n' dim) 0 in
        Box.iter child_box (fun c ->
            incr ops;
            let parent = Array.map (fun x -> x / 2) c in
            let pi = Box.index parent_box parent in
            next.(pi) <- next.(pi) + coarse.(Box.index child_box c));
        let budget = w * Energy.pow (3 * w) dim in
        if Array.exists (fun v -> v > budget) next then loop ~w ~n' ~coarse:next
        else
          {
            value = float_of_int (((2 * Energy.pow 3 dim) + dim) * w);
            cube_side = Some w;
            cell_ops = !ops;
          }
      end
    in
    loop ~w:1 ~n':n ~coarse:finest
  end

let run ~dim ~n dm =
  Metrics.time m_run (fun () ->
      let r = run_raw ~dim ~n dm in
      Metrics.add m_cell_ops r.cell_ops;
      r)
