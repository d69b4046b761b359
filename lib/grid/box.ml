type t = { lo : Point.t; hi : Point.t }

let make ~lo ~hi =
  if Array.length lo <> Array.length hi then
    invalid_arg "Box.make: dimension mismatch";
  Array.iteri
    (fun i l -> if l > hi.(i) then invalid_arg "Box.make: lo > hi")
    lo;
  { lo; hi }

let of_side ~dim ~lo ~side =
  if side <= 0 then invalid_arg "Box.of_side: side must be positive";
  if Array.length lo <> dim then invalid_arg "Box.of_side: dimension mismatch";
  make ~lo ~hi:(Array.map (fun l -> l + side - 1) lo)

let cube_at_origin ~dim ~side = of_side ~dim ~lo:(Point.origin dim) ~side

let hull = function
  | [] -> None
  | p0 :: rest ->
      let lo = Array.copy p0 and hi = Array.copy p0 in
      List.iter
        (fun p ->
          for i = 0 to Array.length lo - 1 do
            if p.(i) < lo.(i) then lo.(i) <- p.(i);
            if p.(i) > hi.(i) then hi.(i) <- p.(i)
          done)
        rest;
      Some (make ~lo ~hi)

let dim b = Array.length b.lo

let side b i = b.hi.(i) - b.lo.(i) + 1

let volume b =
  let v = ref 1 in
  for i = 0 to dim b - 1 do
    v := Energy.mul !v (side b i)
  done;
  !v

let mem b p =
  let n = dim b in
  Array.length p = n
  &&
  let rec loop i = i = n || (p.(i) >= b.lo.(i) && p.(i) <= b.hi.(i) && loop (i + 1)) in
  loop 0

let clamp b p =
  Array.init (dim b) (fun i -> min b.hi.(i) (max b.lo.(i) p.(i)))

let l1_dist_to b p = Point.l1_dist p (clamp b p)

let index b p =
  if not (mem b p) then invalid_arg "Box.index: point outside box";
  let idx = ref 0 in
  for i = 0 to dim b - 1 do
    idx := (!idx * side b i) + (p.(i) - b.lo.(i))
  done;
  !idx

(* The member point of rank [k], for [0 <= k < volume b]: [iter] checks
   the range once, not at every point. *)
let unrank b k =
  let n = dim b in
  let p = Array.make n 0 in
  let k = ref k in
  for i = n - 1 downto 0 do
    let s = side b i in
    p.(i) <- b.lo.(i) + (!k mod s);
    k := !k / s
  done;
  p

let point_of_index b k =
  if k < 0 || k >= volume b then invalid_arg "Box.point_of_index: out of range";
  unrank b k

let iter b f =
  for k = 0 to volume b - 1 do
    f (unrank b k)
  done

let fold b ~init ~f =
  let acc = ref init in
  iter b (fun p -> acc := f !acc p);
  !acc

let points b = List.rev (fold b ~init:[] ~f:(fun acc p -> p :: acc))

let dilate b r =
  if r < 0 then invalid_arg "Box.dilate: negative radius";
  make
    ~lo:(Array.map (fun x -> x - r) b.lo)
    ~hi:(Array.map (fun x -> x + r) b.hi)

let intersect a b =
  let n = dim a in
  if n <> dim b then invalid_arg "Box.intersect: dimension mismatch";
  let lo = Array.init n (fun i -> max a.lo.(i) b.lo.(i)) in
  let hi = Array.init n (fun i -> min a.hi.(i) b.hi.(i)) in
  if Array.exists (fun i -> lo.(i) > hi.(i)) (Array.init n (fun i -> i)) then None
  else Some (make ~lo ~hi)

let tiled b ~side:s =
  if s <= 0 then invalid_arg "Box.tiled: side must be positive";
  make ~lo:b.lo ~hi:(Array.mapi (fun i l -> l + (((side b i + s - 1) / s) * s) - 1) b.lo)

let partition_cubes b ~side:s =
  if s <= 0 then invalid_arg "Box.partition_cubes: side must be positive";
  let n = dim b in
  (* Number of tiles along each axis. *)
  let counts = Array.init n (fun i -> ((side b i + s - 1) / s)) in
  let tiles = Array.fold_left Energy.mul 1 counts in
  let out = ref [] in
  for k = tiles - 1 downto 0 do
    let idx = Array.make n 0 in
    let k = ref k in
    for i = n - 1 downto 0 do
      idx.(i) <- !k mod counts.(i);
      k := !k / counts.(i)
    done;
    let lo = Array.init n (fun i -> b.lo.(i) + (idx.(i) * s)) in
    let hi = Array.init n (fun i -> min b.hi.(i) (lo.(i) + s - 1)) in
    out := make ~lo ~hi :: !out
  done;
  !out

let containing_cube b ~side:s p =
  if not (mem b p) then invalid_arg "Box.containing_cube: point outside box";
  let n = dim b in
  let lo = Array.init n (fun i -> b.lo.(i) + ((p.(i) - b.lo.(i)) / s * s)) in
  let hi = Array.init n (fun i -> min b.hi.(i) (lo.(i) + s - 1)) in
  make ~lo ~hi
