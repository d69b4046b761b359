type search = { graph : Digraph.t; dist : int array; heap : (int * int) Heap.t }

(* A vertex is pushed only when its distance strictly drops, so the one
   entry that still matches [dist] is popped once: that pop settles it. *)
let reach s v d =
  if d < s.dist.(v) then begin
    s.dist.(v) <- d;
    Heap.push s.heap (d, v)
  end

let search graph ~sources =
  let heap = Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) () in
  let s = { graph; dist = Array.make (Digraph.n_vertices graph) max_int; heap } in
  List.iter (fun v -> reach s v 0) sources;
  s

let rec settle s ~radius f =
  match Heap.pop s.heap with
  | None -> ()
  | Some ((d, _) as top) when d > radius -> Heap.push s.heap top
  | Some (d, v) ->
      if d = s.dist.(v) then begin
        f v;
        Digraph.iter_succ s.graph v (fun ~dst ~weight ->
            if weight < 0 then invalid_arg "Paths.dijkstra: negative weight";
            reach s dst (d + weight))
      end;
      settle s ~radius f

let dijkstra g ~source =
  let s = search g ~sources:[ source ] in
  settle s ~radius:max_int ignore;
  s.dist
