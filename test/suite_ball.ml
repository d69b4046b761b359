(* Closed-form neighborhood sizes and the frontier BFS vs. the queue-based
   reference BFS of [Reference] — the identities behind every ω_T
   computation. *)

let point2 x y = [| x; y |]

(* |N_r(x)| for a point x of Z^dim: the closed form on a side-1 cube. *)
let point_volume ~dim ~radius =
  Ball.box_ball_volume (Box.cube_at_origin ~dim ~side:1) ~radius

let test_binomial () =
  Alcotest.(check int) "C(5,2)" 10 (Ball.binomial 5 2);
  Alcotest.(check int) "C(n,0)" 1 (Ball.binomial 9 0);
  Alcotest.(check int) "C(n,n)" 1 (Ball.binomial 9 9);
  Alcotest.(check int) "out of range" 0 (Ball.binomial 4 7);
  Alcotest.(check int) "negative k" 0 (Ball.binomial 4 (-1));
  Alcotest.(check int) "C(20,10)" 184756 (Ball.binomial 20 10)

let test_binomial_overflow_boundary () =
  (* C(34,17) is the largest central coefficient whose multiplicative
     recurrence stays within 63-bit ints on this path; it must come out
     exact, while a clearly out-of-range request must raise instead of
     silently wrapping. *)
  Alcotest.(check int) "C(34,17)" 2333606220 (Ball.binomial 34 17);
  (match Ball.binomial 100 50 with
  | exception Energy.Overflow _ -> ()
  | v -> Alcotest.failf "C(100,50) returned %d instead of raising" v)

let test_ball_volume_symmetry () =
  (* Σ_k 2^k C(d,k) C(r,k) is symmetric in (dim, radius). *)
  for a = 1 to 6 do
    for b = 0 to 6 do
      Alcotest.(check int)
        (Printf.sprintf "dim=%d r=%d" a b)
        (point_volume ~dim:a ~radius:b)
        (point_volume ~dim:b ~radius:a)
    done
  done

let test_ball_volume_known () =
  (* 1-D: 2r+1; 2-D diamond: 2r^2+2r+1. *)
  Alcotest.(check int) "1d r=3" 7 (point_volume ~dim:1 ~radius:3);
  Alcotest.(check int) "2d r=1" 5 (point_volume ~dim:2 ~radius:1);
  Alcotest.(check int) "2d r=2" 13 (point_volume ~dim:2 ~radius:2);
  Alcotest.(check int) "3d r=1" 7 (point_volume ~dim:3 ~radius:1);
  Alcotest.(check int) "r=0" 1 (point_volume ~dim:5 ~radius:0);
  Alcotest.(check int) "negative radius" 0 (point_volume ~dim:2 ~radius:(-1))

let test_ball_volume_vs_bfs () =
  for dim = 1 to 3 do
    for r = 0 to 4 do
      let bfs = Reference.dilation_size [ Point.origin dim ] ~radius:r in
      let paper = ref 0 in
      for k = 0 to min dim r do
        paper :=
          !paper + (Energy.pow 2 k * Ball.binomial dim k * Ball.binomial r k)
      done;
      Alcotest.(check int)
        (Printf.sprintf "paper dim=%d r=%d" dim r)
        bfs !paper;
      Alcotest.(check int)
        (Printf.sprintf "dim=%d r=%d" dim r)
        bfs
        (point_volume ~dim ~radius:r)
    done
  done

(* Σ_k C(dim,k) side^(dim-k) 2^k C(r,k), the cube volume of Lemma 2.2.5. *)
let paper_cube_volume ~dim ~side ~radius =
  let acc = ref 0 in
  for k = 0 to dim do
    acc :=
      !acc
      + Ball.binomial dim k * Energy.pow side (dim - k) * Energy.pow 2 k
        * Ball.binomial radius k
  done;
  !acc

let check_cube_vs_bfs ~dim ~side ~radius =
  let cube = Box.cube_at_origin ~dim ~side in
  let bfs = Reference.dilation_size (Box.points cube) ~radius in
  let label = Printf.sprintf "%dd side=%d r=%d" dim side radius in
  Alcotest.(check int) ("paper " ^ label) bfs
    (paper_cube_volume ~dim ~side ~radius);
  Alcotest.(check int) label bfs (Ball.box_ball_volume cube ~radius)

let test_cube_ball_volume_vs_bfs () =
  for side = 1 to 3 do
    for radius = 0 to 3 do
      check_cube_vs_bfs ~dim:2 ~side ~radius
    done
  done

let test_cube_ball_volume_3d_vs_bfs () =
  for radius = 0 to 2 do
    check_cube_vs_bfs ~dim:3 ~side:2 ~radius
  done

let test_segment_formula_vs_bfs () =
  (* Example 2.1.2: a segment of [len] points in the plane is a 1 x len
     box with (2r+1)·len + 2r^2 points within distance r. *)
  for len = 1 to 4 do
    for r = 0 to 3 do
      let seg = List.init len (fun i -> point2 i 0) in
      let bfs = Reference.dilation_size seg ~radius:r in
      let label = Printf.sprintf "len=%d r=%d" len r in
      Alcotest.(check int) ("paper " ^ label) bfs
        ((((2 * r) + 1) * len) + (2 * r * r));
      let box = Box.make ~lo:(point2 0 0) ~hi:(point2 (len - 1) 0) in
      Alcotest.(check int) label bfs (Ball.box_ball_volume box ~radius:r)
    done
  done

let test_paper_shell_identity () =
  (* Theorem 5.1.1 uses |{i : D(i,T) = r}| = 4s + 4(r-1) for an s x s
     square in the plane. *)
  for s = 1 to 3 do
    let f = Ball.frontier (Box.points (Box.cube_at_origin ~dim:2 ~side:s)) in
    for r = 1 to 4 do
      Alcotest.(check int)
        (Printf.sprintf "s=%d r=%d" s r)
        ((4 * s) + (4 * (r - 1)))
        (List.length (Ball.expand f))
    done
  done

let test_box_ball_volume_rectangle () =
  let rect = Box.make ~lo:(point2 0 0) ~hi:(point2 3 1) in
  for r = 0 to 3 do
    let bfs = Reference.dilation_size (Box.points rect) ~radius:r in
    Alcotest.(check int) (Printf.sprintf "rect r=%d" r) bfs
      (Ball.box_ball_volume rect ~radius:r)
  done

let points = Alcotest.(list (list int))
let coords ps = List.map Array.to_list ps

let test_frontier_matches_shells () =
  let pts = [ point2 0 0; point2 2 1; point2 0 0 ] in
  let shells = Reference.dilate_shells pts ~max_radius:4 in
  let f = Ball.frontier pts in
  Alcotest.check points "shell 0 is the deduplicated seed" (coords shells.(0))
    (coords (Ball.frontier_shell f));
  for r = 1 to 4 do
    Alcotest.check points (Printf.sprintf "shell %d" r) (coords shells.(r))
      (coords (Ball.expand f));
    Alcotest.(check int)
      (Printf.sprintf "size %d" r)
      (Reference.dilation_size pts ~radius:r)
      (Ball.frontier_size f)
  done

let test_iter_sphere_matches_shell () =
  let center = [| 1; -2 |] in
  let shells = Reference.dilate_shells [ center ] ~max_radius:4 in
  for r = 0 to 4 do
    let collected = ref [] in
    Ball.iter_sphere ~center ~radius:r (fun p ->
        collected := Array.copy p :: !collected);
    let set = Point.Set.of_list !collected in
    Alcotest.(check int)
      (Printf.sprintf "no duplicates r=%d" r)
      (List.length !collected) (Point.Set.cardinal set);
    Alcotest.(check bool)
      (Printf.sprintf "sphere = shell r=%d" r)
      true
      (Point.Set.equal set (Point.Set.of_list shells.(r)))
  done;
  let count = ref 0 in
  Ball.iter_sphere ~center:[| 0; 0; 0 |] ~radius:3 (fun _ -> incr count);
  Alcotest.(check int) "3d sphere cardinality"
    (point_volume ~dim:3 ~radius:3 - point_volume ~dim:3 ~radius:2)
    !count

let prop_dilate_shells_accumulate =
  QCheck.Test.make
    ~name:"dilate_shells accumulated to r = dilate_set at r" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5)
           (pair (int_range (-3) 3) (int_range (-3) 3)))
        (int_range 0 4))
    (fun (coords, r) ->
      let pts = List.map (fun (x, y) -> point2 x y) coords in
      let shells = Reference.dilate_shells pts ~max_radius:r in
      let acc = List.concat (Array.to_list shells) in
      let acc_set = Point.Set.of_list acc in
      (* shells partition the ball: no duplicates across (or within) shells *)
      List.length acc = Point.Set.cardinal acc_set
      && Point.Set.equal acc_set (Ball.dilate_set pts ~radius:r))

let prop_closed_form_matches_bfs =
  QCheck.Test.make ~name:"box_ball_volume = BFS dilation (random 2d boxes)"
    ~count:60
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 0 4))
    (fun (w, h, r) ->
      let box = Box.make ~lo:(point2 0 0) ~hi:(point2 (w - 1) (h - 1)) in
      Ball.box_ball_volume box ~radius:r
      = Reference.dilation_size (Box.points box) ~radius:r)

let prop_dilation_monotone =
  QCheck.Test.make ~name:"dilation is monotone in the radius" ~count:60
    QCheck.(pair (int_range 0 4) (int_range 0 4))
    (fun (r1, r2) ->
      let pts = [ point2 0 0; point2 3 2 ] in
      let lo = min r1 r2 and hi = max r1 r2 in
      Point.Set.subset (Ball.dilate_set pts ~radius:lo) (Ball.dilate_set pts ~radius:hi))

(* Random 1-D to 3-D cases: a seed list (duplicates possible), one more
   point of the same dimension, and a radius. *)
let arb_case =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun dim ->
      let point = array_size (return dim) (int_range (-4) 4) in
      triple (list_size (int_range 1 5) point) point (int_range 0 4))
  in
  let print (seeds, p, r) =
    Printf.sprintf "seeds=%s p=%s r=%d"
      (String.concat " " (List.map Point.to_string seeds))
      (Point.to_string p) r
  in
  QCheck.make ~print gen

(* A fresh frontier over [seeds] grown to radius [r], with its shells
   0 .. r in order. *)
let grown seeds r =
  let f = Ball.frontier seeds in
  let shell0 = Ball.frontier_shell f in
  let rest = List.init r (fun _ -> Ball.expand f) in
  (f, shell0 :: rest)

let prop_frontier_is_bfs_order =
  QCheck.Test.make ~name:"frontier shells = reference BFS order" ~count:200
    arb_case (fun (seeds, _, r) ->
      List.equal Point.equal
        (List.concat (snd (grown seeds r)))
        (List.map fst (Reference.bfs seeds ~radius:r)))

let prop_absorb_is_bfs_minus_reached =
  QCheck.Test.make ~name:"absorb = reference BFS around p minus reached"
    ~count:200 arb_case (fun (seeds, p, r) ->
      let f, shells = grown seeds r in
      let reached = Point.Set.of_list (List.concat shells) in
      let expected =
        List.filter
          (fun q -> not (Point.Set.mem q reached))
          (List.map fst (Reference.bfs [ p ] ~radius:r))
      in
      List.equal Point.equal expected (Ball.absorb f p))

let prop_absorb_then_expand =
  QCheck.Test.make ~name:"absorb then expand = fresh frontier on seeds+p"
    ~count:200 arb_case (fun (seeds, p, r) ->
      let f, _ = grown seeds r in
      ignore (Ball.absorb f p);
      let fresh, _ = grown (seeds @ [ p ]) r in
      let same () =
        Ball.frontier_size f = Ball.frontier_size fresh
        && Point.Set.equal
             (Point.Set.of_list (Ball.frontier_shell f))
             (Point.Set.of_list (Ball.frontier_shell fresh))
      in
      let next () =
        ignore (Ball.expand f);
        ignore (Ball.expand fresh);
        same ()
      in
      next () && next ())

let suite =
  [
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "binomial overflow boundary" `Quick
      test_binomial_overflow_boundary;
    Alcotest.test_case "ball volume (dim,radius) symmetry" `Quick
      test_ball_volume_symmetry;
    Alcotest.test_case "ball volume known values" `Quick test_ball_volume_known;
    Alcotest.test_case "ball volume vs BFS" `Quick test_ball_volume_vs_bfs;
    Alcotest.test_case "cube ball vs BFS (2d)" `Quick test_cube_ball_volume_vs_bfs;
    Alcotest.test_case "cube ball vs BFS (3d)" `Quick test_cube_ball_volume_3d_vs_bfs;
    Alcotest.test_case "segment formula vs BFS" `Quick test_segment_formula_vs_bfs;
    Alcotest.test_case "paper shell identity (Thm 5.1.1)" `Quick test_paper_shell_identity;
    Alcotest.test_case "rectangle closed form" `Quick test_box_ball_volume_rectangle;
    Alcotest.test_case "frontier matches dilate_shells" `Quick
      test_frontier_matches_shells;
    Alcotest.test_case "iter_sphere matches shell" `Quick
      test_iter_sphere_matches_shell;
    QCheck_alcotest.to_alcotest prop_dilate_shells_accumulate;
    QCheck_alcotest.to_alcotest prop_closed_form_matches_bfs;
    QCheck_alcotest.to_alcotest prop_dilation_monotone;
    QCheck_alcotest.to_alcotest prop_frontier_is_bfs_order;
    QCheck_alcotest.to_alcotest prop_absorb_is_bfs_minus_reached;
    QCheck_alcotest.to_alcotest prop_absorb_then_expand;
  ]
