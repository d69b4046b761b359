let path_length points =
  let rec loop acc = function
    | a :: (b :: _ as rest) -> loop (acc + Point.l1_dist a b) rest
    | [ _ ] | [] -> acc
  in
  loop 0 points

let cycle_length points =
  match points with
  | [] | [ _ ] -> 0
  | first :: _ ->
      let rec last = function
        | [ x ] -> x
        | _ :: rest -> last rest
        | [] -> assert false
      in
      path_length points + Point.l1_dist (last points) first
