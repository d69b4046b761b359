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

(* --- l-dimensional prefix sums over a box, for sliding cube scans --- *)

module Prefix = struct
  type t = { box : Box.t; sums : int array }

  let build dm box =
    let vol = Box.volume box in
    let sums = Array.make vol 0 in
    Box.iter box (fun p -> sums.(Box.index box p) <- Demand_map.value dm p);
    (* Accumulate along each axis in turn. *)
    let n = Box.dim box in
    for axis = 0 to n - 1 do
      Box.iter box (fun p ->
          if p.(axis) > box.Box.lo.(axis) then begin
            let prev = Array.copy p in
            prev.(axis) <- prev.(axis) - 1;
            sums.(Box.index box p) <-
              sums.(Box.index box p) + sums.(Box.index box prev)
          end)
    done;
    { box; sums }

  (* Sum of demand over the intersection of [qlo, qhi] with the box. *)
  let query t ~qlo ~qhi =
    let n = Box.dim t.box in
    let lo = Array.init n (fun i -> max qlo.(i) t.box.Box.lo.(i)) in
    let hi = Array.init n (fun i -> min qhi.(i) t.box.Box.hi.(i)) in
    if Array.exists (fun i -> lo.(i) > hi.(i)) (Array.init n (fun i -> i)) then 0
    else begin
      (* Inclusion–exclusion over the 2^n corners. *)
      let acc = ref 0 in
      let corner = Array.make n 0 in
      for mask = 0 to (1 lsl n) - 1 do
        let sign = ref 1 in
        let valid = ref true in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) = 0 then corner.(i) <- hi.(i)
          else begin
            corner.(i) <- lo.(i) - 1;
            sign := - !sign;
            if corner.(i) < t.box.Box.lo.(i) then valid := false
          end
        done;
        if !valid then acc := !acc + (!sign * t.sums.(Box.index t.box corner))
      done;
      !acc
    end
end

(* Maximum demand over all side-[s] cubes meeting the support. *)
let scan_cube_demand prefix bbox ~s =
  let n = Box.dim bbox in
  let anchor_box =
    Box.make
      ~lo:(Array.init n (fun i -> bbox.Box.lo.(i) - s + 1))
      ~hi:(Array.map (fun x -> x) bbox.Box.hi)
  in
  let best = ref 0 in
  Box.iter anchor_box (fun a ->
      let qhi = Array.map (fun x -> x + s - 1) a in
      let v = Prefix.query prefix ~qlo:a ~qhi in
      if v > !best then best := v);
  !best

let max_cube_demand dm ~side =
  if side <= 0 then invalid_arg "Omega.max_cube_demand: side must be positive";
  match Demand_map.bounding_box dm with
  | None -> 0
  | Some bbox -> scan_cube_demand (Prefix.build dm bbox) bbox ~s:side

let max_over_cubes dm =
  match Demand_map.bounding_box dm with
  | None -> 0.0
  | Some bbox ->
      let dim = Box.dim bbox in
      let prefix = Prefix.build dm bbox in
      let max_side =
        let s = ref 1 in
        for i = 0 to dim - 1 do
          s := max !s (Box.side bbox i)
        done;
        !s
      in
      let best = ref 0.0 in
      for s = 1 to max_side do
        let d = scan_cube_demand prefix bbox ~s in
        if d > 0 then begin
          let w = of_cube ~dim ~side:s ~total:d in
          if w > !best then best := w
        end
      done;
      !best

let cube_fixpoint_with_side dm =
  match Demand_map.bounding_box dm with
  | None -> (0.0, 1)
  | Some bbox ->
      let dim = Box.dim bbox in
      let prefix = Prefix.build dm bbox in
      let total = Demand_map.total dm in
      let cube_demand s =
        (* Beyond the bounding box's largest side, every cube placement can
           cover the full support. *)
        let covers_all =
          let rec loop i = i = dim || (Box.side bbox i <= s && loop (i + 1)) in
          loop 0
        in
        if covers_all then total else scan_cube_demand prefix bbox ~s
      in
      let best = ref infinity and best_side = ref 1 in
      let s = ref 1 in
      let continue = ref true in
      while !continue do
        let m = cube_demand !s in
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

let cube_fixpoint dm = fst (cube_fixpoint_with_side dm)

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
