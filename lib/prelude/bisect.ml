(* The first accepted probe, or [Error next] with the first value not
   probed when doubling gives up. *)
let rec grow ~cap ok hi attempts =
  if attempts = 0 || hi > cap then Error hi
  else if ok hi then Ok hi
  else grow ~cap ok (2.0 *. hi) (attempts - 1)

let double ?(cap = infinity) ?(attempts = max_int) ~start ok =
  Result.to_option (grow ~cap ok start attempts)

let halve ?(tol = 0.0) ?(rel = 0.0) ~lo ~hi ok =
  let rec go lo hi =
    let mid = 0.5 *. (lo +. hi) in
    if hi -. lo <= tol +. (rel *. (1.0 +. hi)) then hi
    else if not (lo < mid && mid < hi) then mid
    else if ok mid then go lo mid
    else go mid hi
  in
  go lo hi

let least ?tol ?rel ~start ~attempts ok =
  let hi = match grow ~cap:infinity ok start attempts with Ok hi | Error hi -> hi in
  halve ?tol ?rel ~lo:0.0 ~hi ok
