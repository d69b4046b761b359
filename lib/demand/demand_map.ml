(* [points] strictly increase by [Point.compare]; [values.(i)] > 0 is the
   demand at [points.(i)].  Never mutated, so [with_value] shares [points]. *)
type t = { l : int; points : Point.t array; values : int array }

let empty l =
  if l <= 0 then invalid_arg "Demand_map.empty: dimension must be positive";
  { l; points = [||]; values = [||] }

let dim t = t.l

(* The index of [x] in [points.(lo .. hi - 1)], or [-1 - i] for the [i]
   it would be inserted at.  Top level, so it allocates no closure. *)
let rec search points x lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = Point.compare x points.(mid) in
    if c = 0 then mid else if c < 0 then search points x lo mid else search points x (mid + 1) hi

let check_entry name l x k =
  if k < 0 then invalid_arg ("Demand_map." ^ name ^ ": negative demand");
  if Point.dim x <> l then invalid_arg ("Demand_map." ^ name ^ ": dimension mismatch")

let with_value t i v =
  let values = Array.copy t.values in
  values.(i) <- v;
  { t with values }

let add t x k =
  check_entry "add" t.l x k;
  if k = 0 then t
  else
    let n = Array.length t.points in
    let i = search t.points x 0 n in
    if i >= 0 then with_value t i (Energy.add t.values.(i) k)
    else
      let i = -1 - i in
      let insert a v = Array.concat [ Array.sub a 0 i; [| v |]; Array.sub a i (n - i) ] in
      { t with points = insert t.points x; values = insert t.values k }

let remove t x k =
  check_entry "remove" t.l x k;
  let i = search t.points x 0 (Array.length t.points) in
  let v = if i >= 0 then t.values.(i) else 0 in
  if k > v then invalid_arg "Demand_map.remove: demand would become negative"
  else if k = 0 then t
  else if k < v then with_value t i (v - k)
  else
    let delete a = Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1)) in
    { t with points = delete t.points; values = delete t.values }

(* Rows that are not strictly increasing: stably sorted by point, then
   each run of equal points summed left to right, as [add] sums them. *)
let merge l points values n =
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Point.compare points.(a) points.(b)) order;
  let rows =
    Array.fold_left
      (fun rows i ->
        match rows with
        | (p, v) :: rest when Point.equal p points.(i) -> (p, Energy.add v values.(i)) :: rest
        | _ when values.(i) = 0 -> rows
        | _ -> (points.(i), values.(i)) :: rows)
      [] order
  in
  let rows = Array.of_list (List.rev rows) in
  { l; points = Array.map fst rows; values = Array.map snd rows }

let of_rows l points values n =
  let t = empty l and sorted = ref true in
  for i = 0 to n - 1 do
    check_entry "add" l points.(i) values.(i);
    sorted := !sorted && values.(i) > 0 && (i = 0 || Point.compare points.(i - 1) points.(i) < 0)
  done;
  if !sorted then { t with points = Array.sub points 0 n; values = Array.sub values 0 n }
  else merge l points values n

let of_alist l alist =
  let rows = Array.of_list alist in
  of_rows l (Array.map fst rows) (Array.map snd rows) (Array.length rows)

let of_jobs l jobs = of_alist l (List.map (fun x -> (x, 1)) jobs)

let value t x =
  let i = search t.points x 0 (Array.length t.points) in
  if i >= 0 then t.values.(i) else 0

let support t = Array.to_list t.points

let support_size t = Array.length t.points

let is_empty t = Array.length t.points = 0

let total t = Array.fold_left Energy.add 0 t.values

let max_demand t = Array.fold_left max 0 t.values

let bounding_box t = Box.hull (support t)

let rec equal_from a b i =
  i < 0
  || a.values.(i) = b.values.(i) && Point.equal a.points.(i) b.points.(i) && equal_from a b (i - 1)

let equal a b =
  let n = Array.length a.points in
  a.l = b.l && n = Array.length b.points && equal_from a b (n - 1)

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i p -> acc := f !acc p t.values.(i)) t.points;
  !acc

let iter t f = Array.iteri (fun i p -> f p t.values.(i)) t.points

let pp fmt t =
  Format.fprintf fmt "@[<v>demand (dim %d, total %d):@," t.l (total t);
  iter t (fun p v -> Format.fprintf fmt "  %a -> %d@," Point.pp p v);
  Format.fprintf fmt "@]"
