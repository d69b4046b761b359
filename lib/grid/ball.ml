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

let box_ball_volume box ~radius =
  if radius < 0 then 0
  else begin
    let n = Box.dim box in
    (* A point of N_r(B) lies outside the box along some set S of axes,
       by a signed positive excess on each; the excesses sum to <= r
       (2^|S| C(r,|S|) choices), and every axis not in S contributes its
       side.  dp.(k) = sum over k-subsets S of prod_{i not in S} side_i. *)
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

(* --- the one BFS: a frontier paused between shells --- *)

type frontier = {
  f_seen : unit Point.Tbl.t;
  mutable f_shell : Point.t list; (* points at distance exactly f_radius *)
  mutable f_radius : int;
}

(* The points of [points] not in [seen], in order; they join [seen]. *)
let claim seen points =
  List.filter
    (fun p ->
      if Point.Tbl.mem seen p then false
      else begin
        Point.Tbl.add seen p ();
        true
      end)
    points

let frontier points =
  let f_seen = Point.Tbl.create (List.length points) in
  { f_seen; f_shell = claim f_seen points; f_radius = 0 }

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

let dilate_set points ~radius =
  if radius < 0 then invalid_arg "Ball.dilate_set: negative radius";
  let f = frontier points in
  for _ = 1 to radius do
    ignore (expand f)
  done;
  Point.Tbl.fold (fun p () acc -> Point.Set.add p acc) f.f_seen Point.Set.empty

let absorb f p =
  (* A frontier of its own around [p], grown shell by shell to [f]'s
     radius.  Every point it reaches is within that radius of [p]; the
     ones [f] had not reached are new.  A new point on the last shell is
     at distance exactly the radius from the enlarged seed set (its
     distance to the old seeds exceeds the radius, or [f] would have
     reached it), so it joins [f]'s shell and keeps {!expand} exact.
     Old shell entries whose distance just dropped below the radius are
     harmless there: each of their unreached neighbors is one step
     further out regardless. *)
  let g = frontier [ p ] in
  let rec grow added last =
    if g.f_radius < f.f_radius then
      grow (last :: added) (claim f.f_seen (expand g))
    else begin
      f.f_shell <- f.f_shell @ last;
      List.concat (List.rev (last :: added))
    end
  in
  grow [] (claim f.f_seen g.f_shell)

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
