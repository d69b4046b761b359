type outcome = {
  served : int;
  failed : int;
  max_energy_used : float;
  moves : int;
}

let succeeded o = o.failed = 0

let run ?(pad = 0) ~capacity workload =
  let jobs = workload.Workload.jobs in
  if Array.length jobs = 0 then
    { served = 0; failed = 0; max_energy_used = 0.0; moves = 0 }
  else begin
    let window = Box.dilate (Option.get (Box.hull (Array.to_list jobs))) pad in
    let n = Box.volume window in
    let pos = Array.init n (fun i -> Box.point_of_index window i) in
    let energy = Array.make n capacity in
    let served = ref 0 and failed = ref 0 and moves = ref 0 in
    Array.iter
      (fun x ->
        (* Nearest vehicle that can still walk there and serve. *)
        let best = ref (-1) and best_d = ref max_int in
        for v = 0 to n - 1 do
          let d = Point.l1_dist pos.(v) x in
          if d < !best_d && energy.(v) >= float_of_int (d + 1) then begin
            best := v;
            best_d := d
          end
        done;
        if !best < 0 then incr failed
        else begin
          let v = !best in
          energy.(v) <- energy.(v) -. float_of_int (!best_d + 1);
          moves := !moves + !best_d;
          pos.(v) <- x;
          incr served
        end)
      jobs;
    let peak =
      Array.fold_left (fun acc e -> Float.max acc (capacity -. e)) 0.0 energy
    in
    { served = !served; failed = !failed; max_energy_used = peak; moves = !moves }
  end

let min_feasible_capacity ?(tol = 0.25) ?pad workload =
  let ok w = succeeded (run ?pad ~capacity:w workload) in
  Bisect.least ~tol ~start:2.0 ~attempts:40 ok
