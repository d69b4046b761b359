(* ω_T: bracket arithmetic, closed forms, and the maximizations of
   Theorem 1.4.1 / Corollaries 2.2.6–2.2.7. *)

let point2 x y = [| x; y |]

let test_solve_zero () =
  Alcotest.(check (float 0.0)) "zero demand" 0.0
    (Omega.solve ~neighborhood_size:(fun _ -> 1) ~total:0)

let test_single_point_small_demands () =
  (* Single point in the plane: |N_0| = 1, |N_1| = 5, |N_2| = 13. *)
  Alcotest.(check (float 1e-12)) "d=1 -> ω=1" 1.0
    (Omega.of_points [ point2 0 0 ] ~total:1);
  Alcotest.(check (float 1e-12)) "d=3 -> ω=1" 1.0
    (Omega.of_points [ point2 0 0 ] ~total:3);
  (* d=10: bracket [2,3) with |N_2| = 13 gives max(2, 10/13) = 2. *)
  Alcotest.(check (float 1e-12)) "d=10 -> ω=2" 2.0
    (Omega.of_points [ point2 0 0 ] ~total:10);
  (* d=7: bracket [1,2): 7/5 = 1.4. *)
  Alcotest.(check (float 1e-12)) "d=7 -> ω=1.4" 1.4
    (Omega.of_points [ point2 0 0 ] ~total:7)

(* ω_T with every |N_r(T)| counted by the reference BFS. *)
let omega_by_bfs points ~total =
  Omega.solve ~total ~neighborhood_size:(fun r ->
      Reference.dilation_size points ~radius:r)

let test_of_cube_matches_of_points () =
  for side = 1 to 3 do
    for total = 1 to 40 do
      let cube = Box.cube_at_origin ~dim:2 ~side in
      let label = Printf.sprintf "side=%d total=%d" side total in
      let bfs = omega_by_bfs (Box.points cube) ~total in
      Alcotest.(check (float 1e-12))
        label bfs
        (Omega.of_cube ~dim:2 ~side ~total);
      Alcotest.(check (float 1e-12))
        label bfs
        (Omega.of_points (Box.points cube) ~total)
    done
  done

(* Four points whose bounding box holds 4·(2^61 + 1) lattice points: an
   unchecked volume wraps to 4, passes them for a filled box, and the
   closed form then overflows. *)
let test_of_points_wrapping_hull () =
  let points = [ point2 0 0; point2 1 0; point2 2 0; point2 3 (1 lsl 61) ] in
  Alcotest.(check (float 0.0))
    "four unit demands" 1.0
    (Omega.of_points points ~total:4)

(* Random 1-D to 3-D point lists: scattered points, or every point of a
   box; either with a prefix repeated. *)
let arb_points =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun dim ->
      let point = array_size (return dim) (int_range (-3) 3) in
      let box =
        map2
          (fun lo sides ->
            let hi = Array.mapi (fun i l -> l + sides.(i) - 1) lo in
            Box.points (Box.make ~lo ~hi))
          point
          (array_size (return dim) (int_range 1 3))
      in
      oneof [ list_size (int_range 1 6) point; box ] >>= fun pts ->
      int_range 0 (List.length pts) >>= fun dups ->
      int_range 1 300 >|= fun total ->
      (pts @ List.filteri (fun i _ -> i < dups) pts, total))
  in
  let print (pts, total) =
    Printf.sprintf "%s total=%d"
      (String.concat " " (List.map Point.to_string pts))
      total
  in
  QCheck.make ~print gen

let prop_of_points_matches_bfs =
  QCheck.Test.make ~name:"of_points = solve over reference BFS sizes" ~count:200
    arb_points (fun (points, total) ->
      Int64.equal
        (Int64.bits_of_float (Omega.of_points points ~total))
        (Int64.bits_of_float (omega_by_bfs points ~total)))

let test_solve_defining_inequality () =
  (* The returned ω satisfies ω·|N_⌊ω⌋| >= total, and nothing visibly
     smaller does. *)
  let check points total =
    let w = Omega.of_points points ~total in
    let nsize r = Reference.dilation_size points ~radius:r in
    let value v = v *. float_of_int (nsize (int_of_float (Float.floor v))) in
    Alcotest.(check bool) "feasible at omega" true
      (value w >= float_of_int total -. 1e-6);
    let slightly_less = w -. 1e-6 in
    if slightly_less > 0.0 then
      Alcotest.(check bool) "infimum" true (value slightly_less < float_of_int total)
  in
  check [ point2 0 0 ] 17;
  check [ point2 0 0; point2 1 0 ] 23;
  check (Box.points (Box.cube_at_origin ~dim:2 ~side:3)) 100

let test_monotone_in_total () =
  let points = Box.points (Box.cube_at_origin ~dim:2 ~side:2) in
  let prev = ref 0.0 in
  for total = 1 to 60 do
    let w = Omega.of_points points ~total in
    Alcotest.(check bool) "non-decreasing in demand" true (w >= !prev);
    prev := w
  done

let random_demand rng ~support ~max_d =
  let pts = ref [] in
  for _ = 1 to support do
    pts := (point2 (Rng.int rng 5) (Rng.int rng 5), 1 + Rng.int rng max_d) :: !pts
  done;
  Demand_map.of_alist 2 !pts

let test_subsets_dominate_cubes () =
  (* A cube has at least the neighborhood of its demand-carrying subset, so
     ω over subsets of the support dominates ω over cubes. *)
  let rng = Rng.create 123 in
  for _ = 1 to 30 do
    let dm = random_demand rng ~support:5 ~max_d:8 in
    let cubes = Reference.omega_over_cubes dm in
    let subsets = Reference.omega_dual dm in
    Alcotest.(check bool)
      (Printf.sprintf "subsets (%g) >= cubes (%g)" subsets cubes)
      true
      (subsets >= cubes -. 1e-9)
  done

let test_cube_scan_finds_hot_square () =
  (* Demand 8 on each point of a 2x2 square; the 2x2 cube is the hot set. *)
  let dm =
    Demand_map.of_alist 2
      [ (point2 0 0, 8); (point2 0 1, 8); (point2 1 0, 8); (point2 1 1, 8) ]
  in
  let expected = Omega.of_cube ~dim:2 ~side:2 ~total:32 in
  Alcotest.(check (float 1e-12)) "hot square found" expected (Reference.omega_over_cubes dm)

let test_cube_fixpoint_bounds () =
  let rng = Rng.create 321 in
  for _ = 1 to 20 do
    let dm = random_demand rng ~support:5 ~max_d:10 in
    let wc, side = Omega.cube_fixpoint_with_side dm in
    Alcotest.(check bool) "positive" true (wc > 0.0);
    Alcotest.(check bool) "side brackets ωc" true
      (float_of_int (side - 1) <= wc +. 1e-9 && wc <= float_of_int side +. 1e-9);
    (* ωc is a Woff lower bound, so it must not exceed the subset max by
       more than the discretization slack. *)
    let star = Reference.omega_dual dm in
    Alcotest.(check bool)
      (Printf.sprintf "ωc (%g) <= ω* (%g) + 1" wc star)
      true (wc <= star +. 1.0)
  done

let test_cube_fixpoint_empty () =
  Alcotest.(check (float 0.0))
    "empty" 0.0
    (fst (Omega.cube_fixpoint_with_side (Demand_map.empty 2)))

(* --- Cube scan pins ---

   The cube scans' answers on 200 seeded demands, bit for bit: 1-D to
   3-D, 1–12 sites with demand 1–20, coordinates on both sides of the
   origin and every seventh demand shifted by -1,000.  Per demand, an
   FNV folds the float bits and side of [cube_fixpoint_with_side] and
   [max_cube_demand] at sides 1–8.  A change to the cube scans that is
   not meant to change their answers keeps both digests. *)

let pin_demands () =
  let rng = Rng.create 2027 in
  List.init 200 (fun k ->
      let dim = 1 + (k mod 3) in
      let span = [| 40; 12; 6 |].(dim - 1) in
      let shift = if k mod 7 = 0 then -1000 else 0 in
      let sites = 1 + Rng.int rng 12 in
      Demand_map.of_alist dim
        (List.init sites (fun _ ->
             ( Array.init dim (fun _ -> shift + Rng.int_in rng (-span / 2) span),
               1 + Rng.int rng 20 ))))

let pin_digests () =
  List.fold_left
    (fun (hc, hm) dm ->
      let w, side = Omega.cube_fixpoint_with_side dm in
      let hc = Fnv.add_int (Fnv.add_int hc (Int64.to_int (Int64.bits_of_float w))) side in
      let hm = ref hm in
      for s = 1 to 8 do
        hm := Fnv.add_int !hm (Omega.max_cube_demand dm ~side:s)
      done;
      (hc, !hm))
    (Fnv.basis, Fnv.basis) (pin_demands ())

let test_cube_scan_pins () =
  let hc, hm = pin_digests () in
  Alcotest.(check string) "cube_fixpoint_with_side" "05a0dd1fd96a2792" (Printf.sprintf "%016x" hc);
  Alcotest.(check string) "max_cube_demand, sides 1-8" "25c784472b013b7f" (Printf.sprintf "%016x" hm)

(* --- The cube scans at the cost of the support --- *)

(* Random 1-D to 3-D demands of 1–10 sites with demand 1–20, on both sides
   of the origin; one in three, on average, is shifted by -1,000. *)
let arb_cube_demand =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun dim ->
      let span = [| 20; 6; 4 |].(dim - 1) in
      int_range 0 2 >>= fun shifted ->
      let coord = map (fun x -> x - if shifted = 0 then 1000 else 0) (int_range (-span) span) in
      list_size (int_range 1 10) (pair (array_size (return dim) coord) (int_range 1 20))
      >|= Demand_map.of_alist dim)
  in
  QCheck.make ~print:(Format.asprintf "%a" Demand_map.pp) gen

let prop_max_cube_demand_matches_reference =
  QCheck.Test.make ~name:"max_cube_demand = box brute force at every side" ~count:300
    arb_cube_demand (fun dm ->
      let widest =
        match Demand_map.bounding_box dm with
        | None -> 0
        | Some b -> List.fold_left max 1 (List.init (Box.dim b) (Box.side b))
      in
      List.for_all
        (fun side -> Omega.max_cube_demand dm ~side = Reference.max_cube_demand dm ~side)
        (List.init (widest + 2) succ))

(* Words allocated by [f ()], minor plus major, counted as "cold ω*
   allocation" counts them. *)
let words f =
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  w1 -. w0 +. (s1.Gc.major_words -. s0.Gc.major_words)

(* The anchors come from the support, so a sparse demand never pays for
   its bounding box: four jobs spanning a 5001 × 3001 box, and 200 sites
   in an 800 × 800 box. *)
let test_cube_fixpoint_allocation () =
  let four =
    Demand_map.of_jobs 2 [ point2 0 0; point2 0 0; point2 5000 0; point2 5000 3000 ]
  in
  let sparse =
    let rng = Rng.create 7 in
    Demand_map.of_alist 2
      (List.init 200 (fun _ ->
           let x = Rng.int rng 800 in
           let y = Rng.int rng 800 in
           (point2 x y, 1 + Rng.int rng 5)))
  in
  List.iter
    (fun (name, dm, bound) ->
      let w = words (fun () -> Omega.cube_fixpoint_with_side dm) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words (at most %.0f)" name w bound)
        true (w <= bound))
    [ ("four jobs", four, 10_000.0); ("200 sites, 800² box", sparse, 500_000.0) ]

(* Coordinates spanning the whole int range: a box side would wrap, the
   support's own coordinates do not. *)
let test_cube_scans_at_int_extremes () =
  let dm =
    Demand_map.of_alist 2
      [ (point2 max_int 0, 3); (point2 min_int 0, 5); (point2 0 max_int, 2) ]
  in
  Alcotest.(check int) "side 1" 5 (Omega.max_cube_demand dm ~side:1);
  Alcotest.(check int) "side max_int" 5 (Omega.max_cube_demand dm ~side:max_int);
  Alcotest.(check (pair (float 0.0) int))
    "ωc and its side" (5.0 /. 9.0, 1)
    (Omega.cube_fixpoint_with_side dm)

let test_example_line_w2_closed_form () =
  (* W(2W+1) = d has W = (-1 + sqrt(1+8d))/4; d = 10 gives exactly 2. *)
  Alcotest.(check (float 1e-9)) "d=10" 2.0 (Omega.example_line_w2 ~d:10);
  for d = 1 to 50 do
    let w = Omega.example_line_w2 ~d in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "plugs back d=%d" d)
      (float_of_int d)
      (w *. ((2.0 *. w) +. 1.0))
  done

let test_example_point_w3_plugs_back () =
  for d = 1 to 50 do
    let w = Omega.example_point_w3 ~d in
    Alcotest.(check (float 1e-5))
      (Printf.sprintf "plugs back d=%d" d)
      (float_of_int d)
      (w *. (((2.0 *. w) +. 1.0) ** 2.0))
  done

let test_example_square_w1_plugs_back () =
  List.iter
    (fun (a, d) ->
      let w = Omega.example_square_w1 ~a ~d in
      let fa = float_of_int a and fd = float_of_int d in
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "plugs back a=%d d=%d" a d)
        (fd *. fa *. fa)
        (w *. (((2.0 *. w) +. fa) ** 2.0)))
    [ (1, 5); (4, 10); (16, 100); (64, 7) ]

let test_example_square_w1_approaches_d () =
  (* §2.1.1: as a grows, W1 -> d. *)
  let d = 9 in
  let w_small = Omega.example_square_w1 ~a:2 ~d in
  let w_large = Omega.example_square_w1 ~a:4096 ~d in
  Alcotest.(check bool) "increasing toward d" true (w_small < w_large);
  Alcotest.(check bool) "close to d for huge squares" true
    (w_large > 0.9 *. float_of_int d && w_large < float_of_int d)

let prop_omega_scale_invariance_line =
  (* On a line of length m with demand d per point, ω_T depends on d and m
     through the equation only; doubling d must increase ω. *)
  QCheck.Test.make ~name:"ω grows when demand doubles" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 20))
    (fun (len, d) ->
      let pts = List.init len (fun i -> point2 i 0) in
      Omega.of_points pts ~total:(len * d) <= Omega.of_points pts ~total:(2 * len * d))

let suite =
  [
    Alcotest.test_case "solve zero" `Quick test_solve_zero;
    Alcotest.test_case "single point demands" `Quick test_single_point_small_demands;
    Alcotest.test_case "cube closed form = BFS" `Quick test_of_cube_matches_of_points;
    Alcotest.test_case "defining inequality" `Quick test_solve_defining_inequality;
    Alcotest.test_case "monotone in total" `Quick test_monotone_in_total;
    Alcotest.test_case "subsets dominate cubes" `Quick test_subsets_dominate_cubes;
    Alcotest.test_case "cube scan finds hot square" `Quick test_cube_scan_finds_hot_square;
    Alcotest.test_case "cube fixpoint bounds" `Quick test_cube_fixpoint_bounds;
    Alcotest.test_case "cube fixpoint empty" `Quick test_cube_fixpoint_empty;
    Alcotest.test_case "cube scan pins" `Quick test_cube_scan_pins;
    Alcotest.test_case "cube fixpoint allocation" `Quick test_cube_fixpoint_allocation;
    Alcotest.test_case "cube scans at the int extremes" `Quick
      test_cube_scans_at_int_extremes;
    Alcotest.test_case "W2 closed form" `Quick test_example_line_w2_closed_form;
    Alcotest.test_case "W3 plugs back" `Quick test_example_point_w3_plugs_back;
    Alcotest.test_case "W1 plugs back" `Quick test_example_square_w1_plugs_back;
    Alcotest.test_case "W1 -> d as a grows" `Quick test_example_square_w1_approaches_d;
    Alcotest.test_case "of_points on a wrapping hull" `Quick
      test_of_points_wrapping_hull;
    QCheck_alcotest.to_alcotest prop_omega_scale_invariance_line;
    QCheck_alcotest.to_alcotest prop_of_points_matches_bfs;
    QCheck_alcotest.to_alcotest prop_max_cube_demand_matches_reference;
  ]
