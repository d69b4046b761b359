type t = { l : int; map : int Point.Map.t }

let empty l =
  if l <= 0 then invalid_arg "Demand_map.empty: dimension must be positive";
  { l; map = Point.Map.empty }

let dim t = t.l

let add t x k =
  if k < 0 then invalid_arg "Demand_map.add: negative demand";
  if Point.dim x <> t.l then invalid_arg "Demand_map.add: dimension mismatch";
  if k = 0 then t
  else
    {
      t with
      map =
        Point.Map.update x
          (function None -> Some k | Some v -> Some (Energy.add v k))
          t.map;
    }

let remove t x k =
  if k < 0 then invalid_arg "Demand_map.remove: negative demand";
  if Point.dim x <> t.l then invalid_arg "Demand_map.remove: dimension mismatch";
  if k = 0 then t
  else
    let v = match Point.Map.find_opt x t.map with None -> 0 | Some v -> v in
    if k > v then invalid_arg "Demand_map.remove: demand would become negative"
    else if k = v then { t with map = Point.Map.remove x t.map }
    else { t with map = Point.Map.add x (v - k) t.map }

let of_alist l alist = List.fold_left (fun t (x, k) -> add t x k) (empty l) alist

let of_jobs l jobs = List.fold_left (fun t x -> add t x 1) (empty l) jobs

let value t x = match Point.Map.find_opt x t.map with None -> 0 | Some v -> v

let support t = List.map fst (Point.Map.bindings t.map)

let support_size t = Point.Map.cardinal t.map

let is_empty t = Point.Map.is_empty t.map

let total t = Point.Map.fold (fun _ v acc -> Energy.add acc v) t.map 0

let max_demand t = Point.Map.fold (fun _ v acc -> max v acc) t.map 0

let bounding_box t = Box.hull (support t)

let equal a b = a.l = b.l && Point.Map.equal Int.equal a.map b.map

let fold t ~init ~f = Point.Map.fold (fun p v acc -> f acc p v) t.map init

let iter t f = Point.Map.iter f t.map

let pp fmt t =
  Format.fprintf fmt "@[<v>demand (dim %d, total %d):@," t.l (total t);
  Point.Map.iter (fun p v -> Format.fprintf fmt "  %a -> %d@," Point.pp p v) t.map;
  Format.fprintf fmt "@]"
