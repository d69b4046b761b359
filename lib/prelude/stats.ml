let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let min_max xs =
  check_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let xs = Array.map fst points and ys = Array.map snd points in
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sxx := !sxx +. ((x -. mx) *. (x -. mx));
      sxy := !sxy +. ((x -. mx) *. (y -. my));
      syy := !syy +. ((y -. my) *. (y -. my)))
    points;
  if !sxx = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let b = !sxy /. !sxx in
  let a = my -. (b *. mx) in
  let r2 = if !syy = 0.0 then 1.0 else !sxy *. !sxy /. (!sxx *. !syy) in
  (a, b, r2)

let loglog_slope points =
  let logged =
    Array.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then
          invalid_arg "Stats.loglog_slope: non-positive point";
        (log x, log y))
      points
  in
  let _, slope, _ = linear_fit logged in
  slope

let geometric_mean xs =
  check_nonempty "Stats.geometric_mean" xs;
  let acc =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value";
        acc +. log x)
      0.0 xs
  in
  exp (acc /. float_of_int (Array.length xs))
