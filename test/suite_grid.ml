(* Point and Box geometry, including the qcheck properties backing the
   closed-form identities used throughout the core. *)

let point2 x y = [| x; y |]

let test_l1_dist () =
  Alcotest.(check int) "2d" 7 (Point.l1_dist (point2 1 2) (point2 (-2) 6));
  Alcotest.(check int) "same point" 0 (Point.l1_dist (point2 3 3) (point2 3 3));
  Alcotest.(check int) "3d" 6 (Point.l1_dist [| 0; 0; 0 |] [| 1; 2; 3 |])

let test_l1_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Point: dimension mismatch")
    (fun () -> ignore (Point.l1_dist [| 0 |] [| 0; 0 |]))

let test_neighbors () =
  let ns = Point.neighbors (point2 0 0) in
  Alcotest.(check int) "four neighbors in 2d" 4 (List.length ns);
  List.iter
    (fun n -> Alcotest.(check int) "at distance 1" 1 (Point.l1_dist n (point2 0 0)))
    ns;
  Alcotest.(check int) "six neighbors in 3d" 6
    (List.length (Point.neighbors [| 0; 0; 0 |]))

let test_point_equal_hash () =
  let a = point2 1 2 and b = point2 1 2 and c = point2 2 1 in
  Alcotest.(check bool) "equal" true (Point.equal a b);
  Alcotest.(check bool) "not equal" false (Point.equal a c);
  Alcotest.(check int) "hash agrees" (Point.hash a) (Point.hash b)

let test_box_volume_and_mem () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 2 3) in
  Alcotest.(check int) "volume" 12 (Box.volume b);
  Alcotest.(check bool) "corner in" true (Box.mem b (point2 2 3));
  Alcotest.(check bool) "outside" false (Box.mem b (point2 3 0))

let test_box_index_roundtrip () =
  let b = Box.make ~lo:[| -1; 2; 0 |] ~hi:[| 1; 4; 1 |] in
  for k = 0 to Box.volume b - 1 do
    let p = Box.point_of_index b k in
    Alcotest.(check int) "roundtrip" k (Box.index b p)
  done

let test_box_iter_count () =
  let b = Box.make ~lo:(point2 (-2) (-2)) ~hi:(point2 2 2) in
  let count = ref 0 in
  Box.iter b (fun _ -> incr count);
  Alcotest.(check int) "25 points" 25 !count

let test_box_clamp_and_dist () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 4 4) in
  Alcotest.(check int) "inside dist 0" 0 (Box.l1_dist_to b (point2 2 2));
  Alcotest.(check int) "corner dist" 4 (Box.l1_dist_to b (point2 6 6));
  Alcotest.(check bool) "clamp" true (Point.equal (Box.clamp b (point2 6 2)) (point2 4 2))

let test_partition_cubes_exact () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 5 5) in
  let tiles = Box.partition_cubes b ~side:3 in
  Alcotest.(check int) "four tiles" 4 (List.length tiles);
  let total = List.fold_left (fun acc t -> acc + Box.volume t) 0 tiles in
  Alcotest.(check int) "tiles cover the box" (Box.volume b) total

let test_partition_cubes_cropped () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 4 4) in
  let tiles = Box.partition_cubes b ~side:3 in
  Alcotest.(check int) "four tiles" 4 (List.length tiles);
  let total = List.fold_left (fun acc t -> acc + Box.volume t) 0 tiles in
  Alcotest.(check int) "tiles cover the box" (Box.volume b) total

(* The tile count of a box whose volume does not fit in an int: an
   unchecked product wraps and tiles nothing. *)
let test_partition_cubes_overflow () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 3 ((1 lsl 61) + 1)) in
  match Box.partition_cubes b ~side:1 with
  | tiles -> Alcotest.failf "%d tiles, expected Energy.Overflow" (List.length tiles)
  | exception Energy.Overflow _ -> ()

let test_tiled () =
  let b = Box.make ~lo:(point2 (-2) 3) ~hi:(point2 4 5) in
  let w = Box.tiled b ~side:3 in
  Alcotest.(check bool) "anchored at lo" true (Point.equal w.Box.lo b.Box.lo);
  Alcotest.(check bool) "sides are the least covering multiples" true
    (Point.equal w.Box.hi (point2 6 5));
  Alcotest.(check int) "full cubes only" 3 (List.length (Box.partition_cubes w ~side:3))

let test_containing_cube () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 5 5) in
  let cube = Box.containing_cube b ~side:3 (point2 4 1) in
  Alcotest.(check bool) "contains point" true (Box.mem cube (point2 4 1));
  Alcotest.(check bool) "anchored on the tiling" true
    (Point.equal cube.Box.lo (point2 3 0))

let test_intersect () =
  let a = Box.make ~lo:(point2 0 0) ~hi:(point2 3 3) in
  let b = Box.make ~lo:(point2 2 2) ~hi:(point2 5 5) in
  (match Box.intersect a b with
  | None -> Alcotest.fail "expected overlap"
  | Some i -> Alcotest.(check int) "overlap volume" 4 (Box.volume i));
  let c = Box.make ~lo:(point2 10 10) ~hi:(point2 11 11) in
  Alcotest.(check bool) "disjoint" true (Box.intersect a c = None)

(* qcheck: containing_cube agrees with partition_cubes. *)
let prop_containing_cube_consistent =
  QCheck.Test.make ~name:"containing_cube is a partition tile" ~count:200
    QCheck.(triple (int_range 1 4) small_nat small_nat)
    (fun (side, px, py) ->
      let b = Box.make ~lo:(point2 0 0) ~hi:(point2 9 9) in
      let p = point2 (px mod 10) (py mod 10) in
      let tiles = Box.partition_cubes b ~side in
      let cube = Box.containing_cube b ~side p in
      List.exists
        (fun t -> Point.equal t.Box.lo cube.Box.lo && Point.equal t.Box.hi cube.Box.hi)
        tiles
      && Box.mem cube p)

let prop_partition_disjoint_cover =
  QCheck.Test.make ~name:"partition tiles are disjoint and cover" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 8))
    (fun (side, extent) ->
      let b = Box.make ~lo:(point2 0 0) ~hi:(point2 (extent - 1) (extent - 1)) in
      let tiles = Box.partition_cubes b ~side in
      let counts = Point.Tbl.create 64 in
      List.iter
        (fun t ->
          Box.iter t (fun p ->
              Point.Tbl.replace counts p
                (1 + Option.value ~default:0 (Point.Tbl.find_opt counts p))))
        tiles;
      let ok = ref true in
      Box.iter b (fun p ->
          if Point.Tbl.find_opt counts p <> Some 1 then ok := false);
      !ok && Point.Tbl.length counts = Box.volume b)

let suite =
  [
    Alcotest.test_case "l1 distance" `Quick test_l1_dist;
    Alcotest.test_case "l1 dimension mismatch" `Quick test_l1_dim_mismatch;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "equal and hash" `Quick test_point_equal_hash;
    Alcotest.test_case "box volume and mem" `Quick test_box_volume_and_mem;
    Alcotest.test_case "box index roundtrip" `Quick test_box_index_roundtrip;
    Alcotest.test_case "box iter count" `Quick test_box_iter_count;
    Alcotest.test_case "box clamp and dist" `Quick test_box_clamp_and_dist;
    Alcotest.test_case "partition exact" `Quick test_partition_cubes_exact;
    Alcotest.test_case "partition cropped" `Quick test_partition_cubes_cropped;
    Alcotest.test_case "partition count overflow" `Quick test_partition_cubes_overflow;
    Alcotest.test_case "tiled window" `Quick test_tiled;
    Alcotest.test_case "containing cube" `Quick test_containing_cube;
    Alcotest.test_case "intersect" `Quick test_intersect;
    QCheck_alcotest.to_alcotest prop_containing_cube_consistent;
    QCheck_alcotest.to_alcotest prop_partition_disjoint_cover;
  ]

(* --- appended: box construction edges --- *)

let test_box_make_rejects_inverted () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Box.make: lo > hi") (fun () ->
      ignore (Box.make ~lo:(point2 2 0) ~hi:(point2 1 5)))

let test_box_of_side () =
  let b = Box.of_side ~dim:2 ~lo:(point2 3 4) ~side:3 in
  Alcotest.(check int) "volume" 9 (Box.volume b);
  Alcotest.(check bool) "hi corner" true (Point.equal b.Box.hi (point2 5 6))

let test_box_dilate () =
  let b = Box.dilate (Box.cube_at_origin ~dim:2 ~side:2) 2 in
  Alcotest.(check int) "volume" 36 (Box.volume b);
  Alcotest.(check bool) "lo" true (Point.equal b.Box.lo (point2 (-2) (-2)))

(* 4 · (2^61 + 1) lattice points: an unchecked product wraps to 4. *)
let test_box_volume_overflow () =
  let b = Box.make ~lo:(point2 0 0) ~hi:(point2 3 (1 lsl 61)) in
  match Box.volume b with
  | exception Energy.Overflow _ -> ()
  | v -> Alcotest.failf "volume returned %d instead of raising" v

let suite =
  suite
  @ [
      Alcotest.test_case "box rejects inverted" `Quick test_box_make_rejects_inverted;
      Alcotest.test_case "box of_side" `Quick test_box_of_side;
      Alcotest.test_case "box dilate" `Quick test_box_dilate;
      Alcotest.test_case "box volume overflow raises" `Quick
        test_box_volume_overflow;
    ]
