type run = {
  success : bool;
  transfers : int;
  distance : int;
  energy_spent : float;
}

let delivered cost m =
  match cost with
  | Transfer.Fixed a1 -> m -. a1
  | Transfer.Variable a2 -> m *. (1.0 -. a2)

let to_send cost ~want =
  match cost with
  | Transfer.Fixed a1 -> want +. a1
  | Transfer.Variable a2 -> want /. (1.0 -. a2)

let simulate dm ~cost ~w =
  if Demand_map.dim dm <> 2 then
    invalid_arg "Grid_collector.simulate: need a 2-D demand map";
  if w < 0.0 then invalid_arg "Grid_collector.simulate: negative capacity";
  match Demand_map.bounding_box dm with
  | None -> { success = true; transfers = 0; distance = 0; energy_spent = 0.0 }
  | Some box ->
      let path = Snake.order box in
      let v = Array.length path in
      if v < 2 then
        (* A single vertex serves itself; no collecting needed. *)
        {
          success = w >= float_of_int (Demand_map.total dm);
          transfers = 0;
          distance = 0;
          energy_spent = float_of_int (Demand_map.total dm);
        }
      else begin
        let demand_at p = float_of_int (Demand_map.value dm p) in
        let tank = ref w in
        let ok = ref true in
        let transfers = ref 0 and distance = ref 0 in
        let check () = if !tank < -1e-9 then ok := false in
        let walk () =
          incr distance;
          tank := !tank -. 1.0;
          check ()
        in
        (* Outbound along the snake, draining every intermediate tank. *)
        for k = 1 to v - 2 do
          ignore k;
          walk ();
          incr transfers;
          tank := !tank +. delivered cost w;
          check ()
        done;
        walk ();
        (* Exchange with the last vehicle so it holds exactly its demand. *)
        let d_last = demand_at path.(v - 1) in
        if w > d_last then begin
          incr transfers;
          tank := !tank +. delivered cost (w -. d_last);
          check ()
        end
        else if w < d_last then begin
          incr transfers;
          tank := !tank -. to_send cost ~want:(d_last -. w);
          check ()
        end;
        (* Return sweep, topping each vehicle up to its demand. *)
        for k = v - 2 downto 1 do
          walk ();
          let dx = demand_at path.(k) in
          if dx > 0.0 then begin
            incr transfers;
            tank := !tank -. to_send cost ~want:dx;
            check ()
          end
        done;
        walk ();
        tank := !tank -. demand_at path.(0);
        check ();
        {
          success = !ok;
          transfers = !transfers;
          distance = !distance;
          energy_spent = (float_of_int v *. w) -. Float.max 0.0 !tank;
        }
      end

let min_capacity ?(tol = 1e-4) dm cost =
  let succeeds w = (simulate dm ~cost ~w).success in
  Bisect.least ~tol ~start:1.0 ~attempts:60 succeeds

let closed_form dm ~cost =
  match Demand_map.bounding_box dm with
  | None -> 0.0
  | Some box ->
      let v = Box.volume box in
      let total = Demand_map.total dm in
      let fv = float_of_int v and fd = float_of_int total in
      (match cost with
      | Transfer.Fixed a1 ->
          ((a1 *. float_of_int ((2 * v) - 3)) +. float_of_int (2 * (v - 1)) +. fd)
          /. fv
      | Transfer.Variable a2 ->
          (float_of_int (2 * (v - 1)) +. fd)
          /. (fv -. (2.0 *. a2 *. fv) +. (3.0 *. a2)))
