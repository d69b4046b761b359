type cost_model = Fixed of float | Variable of float

let remaining_after ~w ~dist =
  if dist < 0 then invalid_arg "Transfer.remaining_after: negative distance";
  if w <= 1.0 then (if dist = 0 then w else 0.0)
  else w *. ((1.0 -. (1.0 /. w)) ** float_of_int dist)

let import_bound ~w ~side =
  if side <= 0 then invalid_arg "Transfer.import_bound: side must be positive";
  if w <= 0.0 then 0.0
  else begin
    let s = float_of_int side in
    if w <= 1.0 then w *. s *. s
    else
      (* Exact sum of the shell series 4s + 4(r-1) against the geometric
         decay: w·(s² + 4w² + 4sw - 8w - 4s + 4). *)
      w *. ((s *. s) +. (4.0 *. w *. w) +. (4.0 *. s *. w) -. (8.0 *. w) -. (4.0 *. s) +. 4.0)
  end

let lower_bound dm =
  if Demand_map.dim dm <> 2 then
    invalid_arg "Transfer.lower_bound: Theorem 5.1.1 machinery is 2-dimensional";
  match Demand_map.bounding_box dm with
  | None -> 0.0
  | Some bbox ->
      let max_side = max (Box.side bbox 0) (Box.side bbox 1) in
      let heaviest = Omega.max_cube_demand dm in
      let best = ref 0.0 in
      for side = 1 to max_side do
        let demand = heaviest ~side in
        if demand > 0 then begin
          (* Smallest w whose import bound covers the square's demand. *)
          let target = float_of_int demand in
          let w =
            Bisect.least ~rel:1e-9 ~start:1.0 ~attempts:60 (fun w ->
                import_bound ~w ~side >= target)
          in
          if w > !best then best := w
        end
      done;
      !best

module Segment = struct
  type run = {
    success : bool;
    transfers : int;
    distance : int;
    energy_spent : float;
  }

  (* Transfer convention: when A sends m units to B, A's tank drops by m
     and B's rises by the delivered amount after the charge — m - a1 for
     the fixed model, m·(1 - a2) for the variable one. *)
  let delivered cost m =
    match cost with Fixed a1 -> m -. a1 | Variable a2 -> m *. (1.0 -. a2)

  let to_send cost ~want =
    match cost with Fixed a1 -> want +. a1 | Variable a2 -> want /. (1.0 -. a2)

  let simulate ~n ~demand ~cost ~w =
    if n < 2 then invalid_arg "Transfer.Segment.simulate: need n >= 2";
    if w < 0.0 then invalid_arg "Transfer.Segment.simulate: negative capacity";
    let tank = ref w in
    let ok = ref true in
    let transfers = ref 0 and distance = ref 0 in
    let check () = if !tank < -1e-9 then ok := false in
    let walk steps =
      distance := Energy.add !distance steps;
      tank := !tank -. float_of_int steps;
      check ()
    in
    (* Sweep right, draining every intermediate tank into the collector. *)
    for _x = 2 to n - 1 do
      walk 1;
      incr transfers;
      tank := !tank +. delivered cost w;
      check ()
    done;
    walk 1;
    (* Exchange with vehicle n so it ends up holding exactly d(n). *)
    let dn = float_of_int (demand n) in
    if w > dn then begin
      incr transfers;
      tank := !tank +. delivered cost (w -. dn);
      check ()
    end
    else if w < dn then begin
      incr transfers;
      tank := !tank -. to_send cost ~want:(dn -. w);
      check ()
    end;
    (* Sweep back, topping each vehicle up to its demand. *)
    for x0 = 2 to n - 1 do
      let x = n + 1 - x0 in
      walk 1;
      let dx = float_of_int (demand x) in
      if dx > 0.0 then begin
        incr transfers;
        tank := !tank -. to_send cost ~want:dx;
        check ()
      end
    done;
    walk 1;
    (* Serve the collector's own position. *)
    tank := !tank -. float_of_int (demand 1);
    check ();
    let total_initial = float_of_int n *. w in
    let leftover =
      (* Every vehicle except the collector is left holding exactly its
         demand, which service then consumes; the collector's leftover is
         its tank. *)
      Float.max 0.0 !tank
    in
    {
      success = !ok;
      transfers = !transfers;
      distance = !distance;
      energy_spent = total_initial -. leftover;
    }

  let min_capacity ?(tol = 1e-4) ~n ~demand cost =
    let succeeds w = (simulate ~n ~demand ~cost ~w).success in
    Bisect.least ~tol ~start:1.0 ~attempts:60 succeeds

  let closed_form ~n ~total ~cost =
    let fn = float_of_int n and fd = float_of_int total in
    match cost with
    | Fixed a1 ->
        ((a1 *. float_of_int ((2 * n) - 3)) +. float_of_int ((2 * n) - 2) +. fd) /. fn
    | Variable a2 ->
        (float_of_int ((2 * n) - 2) +. fd)
        /. (fn -. (2.0 *. a2 *. fn) +. (3.0 *. a2))

  let no_transfer_capacity ~n ~demand =
    let dm =
      Demand_map.of_alist 1 (List.init n (fun i -> ([| i + 1 |], demand (i + 1))))
    in
    Oracle.omega_star dm
end
