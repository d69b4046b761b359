let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    (* Multiplicative formula with exact intermediate divisibility:
       acc * (n-k+i) is always divisible by i.  The product is checked —
       C(n,k) can exceed [max_int] long before n does, and a silently
       wrapped count corrupts every volume bound built on it. *)
    let acc = ref 1 in
    for i = 1 to k do
      acc := Energy.mul !acc (n - k + i) / i
    done;
    !acc
  end

let ball_volume ~dim ~radius =
  if radius < 0 then 0
  else begin
    let acc = ref 0 in
    for k = 0 to min dim radius do
      acc :=
        Energy.add !acc
          (Energy.mul
             (Energy.mul (Energy.pow 2 k) (binomial dim k))
             (binomial radius k))
    done;
    !acc
  end

let cube_ball_volume ~dim ~side ~radius =
  if side <= 0 then invalid_arg "Ball.cube_ball_volume: side must be positive";
  if radius < 0 then 0
  else begin
    let acc = ref 0 in
    for k = 0 to dim do
      acc :=
        Energy.add !acc
          (Energy.mul
             (Energy.mul
                (Energy.mul (binomial dim k) (Energy.pow side (dim - k)))
                (Energy.pow 2 k))
             (binomial radius k))
    done;
    !acc
  end

let box_ball_volume box ~radius =
  if radius < 0 then 0
  else begin
    let n = Box.dim box in
    (* For each subset S of coordinates that lie strictly outside the box,
       inside coordinates contribute (side i) choices each, outside ones a
       signed positive excess; excesses over S sum to <= radius.  Summing
       over subsets by dynamic programming on (axis, #outside) with the
       product of inside sides accumulated per count is wrong when sides
       differ, so enumerate subset sizes with a DP carrying the sum of
       products of inside sides for each count of outside axes. *)
    (* dp.(k) = sum over k-subsets S of prod_{i not in S} side_i *)
    let dp = Array.make (n + 1) 0 in
    dp.(0) <- 1;
    for i = 0 to n - 1 do
      let s = Box.side box i in
      for k = i + 1 downto 1 do
        dp.(k) <- Energy.add (Energy.mul dp.(k) s) dp.(k - 1)
      done;
      dp.(0) <- Energy.mul dp.(0) s
    done;
    let acc = ref 0 in
    for k = 0 to n do
      acc :=
        Energy.add !acc
          (Energy.mul (Energy.mul dp.(k) (Energy.pow 2 k)) (binomial radius k))
    done;
    !acc
  end

let segment_ball_volume_2d ~len ~radius =
  if len <= 0 then invalid_arg "Ball.segment_ball_volume_2d: len must be positive";
  if radius < 0 then 0
  else
    Energy.add
      (Energy.mul ((2 * radius) + 1) len)
      (Energy.mul 2 (Energy.mul radius radius))

let dilate_set points ~radius =
  if radius < 0 then invalid_arg "Ball.dilate_set: negative radius";
  match points with
  | [] -> Point.Set.empty
  | p0 :: _ ->
      let l = Point.dim p0 in
      ignore l;
      let seen = Point.Tbl.create (List.length points) in
      let queue = Queue.create () in
      List.iter
        (fun p ->
          if not (Point.Tbl.mem seen p) then begin
            Point.Tbl.add seen p 0;
            Queue.add p queue
          end)
        points;
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        let d = Point.Tbl.find seen p in
        if d < radius then
          List.iter
            (fun q ->
              if not (Point.Tbl.mem seen q) then begin
                Point.Tbl.add seen q (d + 1);
                Queue.add q queue
              end)
            (Point.neighbors p)
      done;
      Point.Tbl.fold (fun p _ acc -> Point.Set.add p acc) seen Point.Set.empty

(* --- incremental (frontier-based) dilation --- *)

type frontier = {
  f_seen : unit Point.Tbl.t;
  mutable f_shell : Point.t list; (* points at distance exactly f_radius *)
  mutable f_radius : int;
}

let frontier points =
  let f_seen = Point.Tbl.create (List.length points) in
  let shell =
    List.filter
      (fun p ->
        if Point.Tbl.mem f_seen p then false
        else begin
          Point.Tbl.add f_seen p ();
          true
        end)
      points
  in
  { f_seen; f_shell = shell; f_radius = 0 }

let frontier_radius f = f.f_radius
let frontier_shell f = f.f_shell
let frontier_size f = Point.Tbl.length f.f_seen

let expand f =
  let next = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if not (Point.Tbl.mem f.f_seen q) then begin
            Point.Tbl.add f.f_seen q ();
            next := q :: !next
          end)
        (Point.neighbors p))
    f.f_shell;
  f.f_shell <- List.rev !next;
  f.f_radius <- f.f_radius + 1;
  f.f_shell

let absorb f p =
  let r = f.f_radius in
  (* BFS from [p] out to the current radius.  The flood traverses
     already-seen points (they may shield unseen ones behind them) but
     only unseen points are new.  A newly seen point at flood depth
     exactly [r] has distance exactly [r] from the enlarged seed set
     (its BFS depth is its exact distance to [p], and its distance to
     the old seeds exceeds [r] or it would have been seen), so appending
     those to the shell keeps {!expand} exact.  Old shell entries whose
     distance just dropped below [r] are harmless there: each of their
     unseen neighbors is at distance [r + 1] regardless. *)
  let added = ref [] in
  let shell_add = ref [] in
  let dist = Point.Tbl.create 64 in
  let queue = Queue.create () in
  Point.Tbl.add dist p 0;
  Queue.add p queue;
  if not (Point.Tbl.mem f.f_seen p) then begin
    Point.Tbl.add f.f_seen p ();
    added := p :: !added;
    if r = 0 then shell_add := p :: !shell_add
  end;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let d = Point.Tbl.find dist q in
    if d < r then
      List.iter
        (fun w ->
          if not (Point.Tbl.mem dist w) then begin
            Point.Tbl.add dist w (d + 1);
            Queue.add w queue;
            if not (Point.Tbl.mem f.f_seen w) then begin
              Point.Tbl.add f.f_seen w ();
              added := w :: !added;
              if d + 1 = r then shell_add := w :: !shell_add
            end
          end)
        (Point.neighbors q)
  done;
  f.f_shell <- f.f_shell @ List.rev !shell_add;
  List.rev !added

let dilate_shells points ~max_radius =
  if max_radius < 0 then invalid_arg "Ball.dilate_shells: negative radius";
  let shells = Array.make (max_radius + 1) [] in
  let f = frontier points in
  shells.(0) <- frontier_shell f;
  for r = 1 to max_radius do
    shells.(r) <- expand f
  done;
  shells

let iter_sphere ~center ~radius f =
  if radius < 0 then invalid_arg "Ball.iter_sphere: negative radius";
  let n = Point.dim center in
  if n = 0 then begin
    if radius = 0 then f [||]
  end
  else begin
    let buf = Array.copy center in
    (* Distribute the remaining L1 budget over coordinates i..n-1; the
       last coordinate must absorb exactly what is left, so every point
       of the sphere is visited exactly once. *)
    let rec go i remaining =
      if i = n - 1 then begin
        buf.(i) <- center.(i) + remaining;
        f buf;
        if remaining > 0 then begin
          buf.(i) <- center.(i) - remaining;
          f buf
        end;
        buf.(i) <- center.(i)
      end
      else begin
        for v = -remaining to remaining do
          buf.(i) <- center.(i) + v;
          go (i + 1) (remaining - abs v)
        done;
        buf.(i) <- center.(i)
      end
    in
    go 0 radius
  end

let as_box points =
  (* Recognise a set of points that exactly fills its bounding box. *)
  match points with
  | [] -> None
  | p0 :: _ ->
      let n = Point.dim p0 in
      let lo = Array.copy p0 and hi = Array.copy p0 in
      List.iter
        (fun p ->
          for i = 0 to n - 1 do
            if p.(i) < lo.(i) then lo.(i) <- p.(i);
            if p.(i) > hi.(i) then hi.(i) <- p.(i)
          done)
        points;
      let box = Box.make ~lo ~hi in
      let distinct = Point.Set.of_list points in
      if Point.Set.cardinal distinct = Box.volume box then Some box else None

let neighborhood_size points ~radius =
  match as_box points with
  | Some box -> box_ball_volume box ~radius
  | None -> Point.Set.cardinal (dilate_set points ~radius)

let shell_sizes points ~max_radius =
  if max_radius < 0 then invalid_arg "Ball.shell_sizes: negative radius";
  let shells = Array.make (max_radius + 1) 0 in
  (match points with
  | [] -> ()
  | _ ->
      let seen = Point.Tbl.create 1024 in
      let queue = Queue.create () in
      List.iter
        (fun p ->
          if not (Point.Tbl.mem seen p) then begin
            Point.Tbl.add seen p 0;
            Queue.add p queue;
            shells.(0) <- shells.(0) + 1
          end)
        points;
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        let d = Point.Tbl.find seen p in
        if d < max_radius then
          List.iter
            (fun q ->
              if not (Point.Tbl.mem seen q) then begin
                Point.Tbl.add seen q (d + 1);
                shells.(d + 1) <- shells.(d + 1) + 1;
                Queue.add q queue
              end)
            (Point.neighbors p)
      done);
  shells
