let scan_brackets f =
  let rec scan m =
    let candidate = Float.max (float_of_int m) (f m) in
    if candidate < float_of_int (m + 1) then candidate else scan (m + 1)
  in
  scan 0

let solve ~neighborhood_size ~total =
  if total < 0 then invalid_arg "Omega.solve: negative total";
  if total = 0 then 0.0
  else
    (* Within a bracket the neighborhood size c_m is constant, so the
       bracket's value is total/c_m.  The scan is short: c_m >= 1 gives
       termination by m = total at the latest. *)
    scan_brackets (fun m ->
        let c = neighborhood_size m in
        if c <= 0 then invalid_arg "Omega.solve: neighborhood size must be positive";
        float_of_int total /. float_of_int c)

let of_points points ~total =
  match Box.hull points with
  | None -> invalid_arg "Omega.of_points: empty set"
  | Some box ->
      let f = Ball.frontier points in
      (* The frontier's seeds are the distinct points, so the set fills its
         bounding box when they number its volume.  A volume past
         [max_int] is never filled: no list holds that many points. *)
      let filled =
        match Box.volume box with
        | v -> v = Ball.frontier_size f
        | exception Energy.Overflow _ -> false
      in
      if filled then
        solve ~total ~neighborhood_size:(fun r ->
            Ball.box_ball_volume box ~radius:r)
      else
        (* [solve] asks for radii 0, 1, 2, ... once each, in order
           ({!scan_brackets}), so one shell per call keeps the frontier at
           radius [r]. *)
        solve ~total ~neighborhood_size:(fun r ->
            if r > 0 then ignore (Ball.expand f);
            Ball.frontier_size f)

let of_cube ~dim ~side ~total =
  let cube = Box.cube_at_origin ~dim ~side in
  solve ~total ~neighborhood_size:(fun r -> Ball.box_ball_volume cube ~radius:r)

(* --- cube demand over the support's own coordinates ---

   Sliding a cube up one axis until its lower face meets a support
   coordinate loses no demand, so some heaviest side-[s] cube has every
   lower face on one.  The anchors are then the product of each axis's
   distinct support coordinates ([coords], ascending), and [cells] holds
   one cell per anchor, row-major: d(x) at a support point, 0 elsewhere.
   Its size is never more than the bounding box's volume. *)

let cube_grid dm =
  let support = Demand_map.support dm in
  let coords =
    Array.init (Demand_map.dim dm) (fun i ->
        Array.of_list (List.sort_uniq Int.compare (List.map (fun p -> p.(i)) support)))
  in
  let rank c x =
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if c.(mid) <= x then search mid hi else search lo mid
    in
    search 0 (Array.length c)
  in
  let size = Array.fold_left (fun n c -> Energy.mul n (Array.length c)) 1 coords in
  let cells = Array.make size 0 in
  Demand_map.iter dm (fun p d ->
      let k = ref 0 in
      Array.iteri (fun i c -> k := (!k * Array.length c) + rank c p.(i)) coords;
      cells.(!k) <- d);
  (coords, cells)

(* Turns [cells] into the demand of the side-[side] cube anchored at each
   cell, and returns the largest.  Along each axis in turn, a two-pointer
   window over that axis's coordinates replaces every cell by the total
   of the cells at most [side - 1] above it.  "x lies in [lo, lo + side -
   1]" is tested as [x - lo < side] when [lo >= 0] and as [x < lo + side]
   otherwise, so neither form can overflow. *)
let window_sums coords cells ~side =
  let stride = ref (Array.length cells) in
  Array.iter
    (fun c ->
      let n = Array.length c in
      let inner = !stride / n in
      stride := inner;
      let block = ref 0 in
      while !block < Array.length cells do
        for line = !block to !block + inner - 1 do
          let sum = ref 0 and hi = ref 0 in
          for k = 0 to n - 1 do
            let lo = c.(k) in
            while
              !hi < n && if lo >= 0 then c.(!hi) - lo < side else c.(!hi) < lo + side
            do
              sum := Energy.add !sum cells.(line + (!hi * inner));
              incr hi
            done;
            let at = line + (k * inner) in
            let v = cells.(at) in
            cells.(at) <- !sum;
            sum := !sum - v
          done
        done;
        block := !block + (n * inner)
      done)
    coords;
  Array.fold_left Int.max 0 cells

let max_cube_demand dm =
  let coords, cells = cube_grid dm in
  fun ~side ->
    if side <= 0 then invalid_arg "Omega.max_cube_demand: side must be positive";
    if Array.length cells = 0 then 0 else window_sums coords (Array.copy cells) ~side

let cube_fixpoint_with_side dm =
  let dim = Demand_map.dim dm in
  let heaviest = max_cube_demand dm in
  let total = Demand_map.total dm in
  let best = ref infinity and best_side = ref 1 in
  let s = ref 1 in
  let continue = ref true in
  while !continue do
    (* Once [s] spans the support, the cube anchored at its lowest
       coordinates holds all of it, so [m] is the total. *)
    let m = heaviest ~side:!s in
    let cand = float_of_int m /. float_of_int (Energy.pow (3 * !s) dim) in
    (* ω with ⌈ω⌉ = s lives in (s-1, s]; the smallest admissible value
       there is max(cand, s-1). *)
    if cand <= float_of_int !s then begin
      let w = Float.max cand (float_of_int (!s - 1)) in
      if w < !best then begin
        best := w;
        best_side := !s
      end
    end;
    (* Larger sides can only yield ω >= s-1; stop once that exceeds the
       best found. *)
    if float_of_int !s >= !best || !s > total + 1 then continue := false
    else incr s
  done;
  if !best = infinity then (0.0, 1) else (!best, !best_side)

(* --- closed forms of §2.1, solved by bisection: each [f] is increasing,
   so halving [0, d] to the last float finds [w] with [f w = target]. --- *)

let example_square_w1 ~a ~d =
  if a <= 0 || d < 0 then invalid_arg "Omega.example_square_w1: bad parameters";
  if d = 0 then 0.0
  else begin
    let fa = float_of_int a and fd = float_of_int d in
    let f w = w *. (((2.0 *. w) +. fa) ** 2.0) in
    Bisect.halve ~lo:0.0 ~hi:fd (fun w -> f w >= fd *. fa *. fa)
  end

let example_line_w2 ~d =
  if d < 0 then invalid_arg "Omega.example_line_w2: negative demand";
  if d = 0 then 0.0
  else begin
    let fd = float_of_int d in
    let f w = w *. ((2.0 *. w) +. 1.0) in
    Bisect.halve ~lo:0.0 ~hi:fd (fun w -> f w >= fd)
  end

let example_point_w3 ~d =
  if d < 0 then invalid_arg "Omega.example_point_w3: negative demand";
  if d = 0 then 0.0
  else begin
    let fd = float_of_int d in
    let f w = w *. (((2.0 *. w) +. 1.0) ** 2.0) in
    Bisect.halve ~lo:0.0 ~hi:fd (fun w -> f w >= fd)
  end
