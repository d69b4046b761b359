let point2 x y = [| x; y |]

let test_of_jobs_aggregates () =
  let dm = Demand_map.of_jobs 2 [ point2 0 0; point2 1 0; point2 0 0 ] in
  Alcotest.(check int) "d(0,0)" 2 (Demand_map.value dm (point2 0 0));
  Alcotest.(check int) "d(1,0)" 1 (Demand_map.value dm (point2 1 0));
  Alcotest.(check int) "d elsewhere" 0 (Demand_map.value dm (point2 5 5));
  Alcotest.(check int) "total" 3 (Demand_map.total dm);
  Alcotest.(check int) "max" 2 (Demand_map.max_demand dm);
  Alcotest.(check int) "support" 2 (Demand_map.support_size dm)

let test_add_zero_is_identity () =
  let dm = Demand_map.empty 2 in
  let dm' = Demand_map.add dm (point2 1 1) 0 in
  Alcotest.(check int) "no support" 0 (Demand_map.support_size dm')

let test_bounding_box () =
  let dm = Demand_map.of_alist 2 [ (point2 (-1) 2, 1); (point2 3 0, 2) ] in
  match Demand_map.bounding_box dm with
  | None -> Alcotest.fail "non-empty"
  | Some b ->
      Alcotest.(check bool) "lo" true (Point.equal b.Box.lo (point2 (-1) 0));
      Alcotest.(check bool) "hi" true (Point.equal b.Box.hi (point2 3 2))

let test_bounding_box_empty () =
  Alcotest.(check bool) "empty" true (Demand_map.bounding_box (Demand_map.empty 2) = None)

let test_workload_square () =
  let w = Workload.square ~side:3 ~per_point:2 () in
  Alcotest.(check int) "job count" 18 (Array.length w.Workload.jobs);
  let dm = Workload.demand w in
  Alcotest.(check int) "total" 18 (Demand_map.total dm);
  Alcotest.(check int) "per point" 2 (Demand_map.value dm (point2 1 1));
  Alcotest.(check int) "support" 9 (Demand_map.support_size dm)

let test_workload_line () =
  let w = Workload.line ~len:5 ~per_point:3 in
  let dm = Workload.demand w in
  Alcotest.(check int) "support" 5 (Demand_map.support_size dm);
  Alcotest.(check int) "per point" 3 (Demand_map.value dm (point2 4 0));
  (* all on the x-axis *)
  List.iter
    (fun p -> Alcotest.(check int) "y = 0" 0 p.(1))
    (Demand_map.support dm)

let test_workload_point () =
  let w = Workload.point ~total:7 () in
  let dm = Workload.demand w in
  Alcotest.(check int) "support" 1 (Demand_map.support_size dm);
  Alcotest.(check int) "all at origin" 7 (Demand_map.value dm (point2 0 0))

let test_workload_uniform_determinism () =
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 9 9) in
  let w1 = Workload.uniform ~rng:(Rng.create 5) ~box ~jobs:40 in
  let w2 = Workload.uniform ~rng:(Rng.create 5) ~box ~jobs:40 in
  Alcotest.(check bool) "same seed, same workload" true
    (Array.for_all2 Point.equal w1.Workload.jobs w2.Workload.jobs);
  Array.iter
    (fun p -> Alcotest.(check bool) "inside box" true (Box.mem box p))
    w1.Workload.jobs

let test_workload_clustered_inside_box () =
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 19 19) in
  let w =
    Workload.clustered ~rng:(Rng.create 6) ~box ~clusters:3 ~jobs_per_cluster:20
      ~spread:2
  in
  Alcotest.(check int) "job count" 60 (Array.length w.Workload.jobs);
  Array.iter
    (fun p -> Alcotest.(check bool) "clamped into box" true (Box.mem box p))
    w.Workload.jobs

let test_workload_zipf_skew () =
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 49 49) in
  let w = Workload.zipf_sites ~rng:(Rng.create 7) ~box ~sites:20 ~jobs:500 ~exponent:1.5 in
  let dm = Workload.demand w in
  Alcotest.(check int) "total preserved" 500 (Demand_map.total dm);
  Alcotest.(check bool) "top site is hot" true
    (Demand_map.max_demand dm > 500 / 20)

let test_workload_shuffled_same_demand () =
  let w = Workload.line ~len:6 ~per_point:2 in
  let s = Workload.shuffled ~rng:(Rng.create 8) w in
  let d1 = Workload.demand w and d2 = Workload.demand s in
  List.iter
    (fun p ->
      Alcotest.(check int) "same aggregated demand" (Demand_map.value d1 p)
        (Demand_map.value d2 p))
    (Demand_map.support d1);
  Alcotest.(check int) "same total" (Demand_map.total d1) (Demand_map.total d2)

let test_workload_mixture () =
  let rng = Rng.create 9 in
  let w =
    Workload.mixture ~rng ~name:"mix"
      [ Workload.line ~len:3 ~per_point:1; Workload.point ~total:4 () ]
  in
  Alcotest.(check int) "jobs merged" 7 (Array.length w.Workload.jobs)

let test_workload_translate () =
  let w = Workload.translate (Workload.point ~total:2 ()) (point2 5 7) in
  let dm = Workload.demand w in
  Alcotest.(check int) "moved" 2 (Demand_map.value dm (point2 5 7))

let prop_of_jobs_total =
  QCheck.Test.make ~name:"total demand = number of jobs" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (pair (int_range (-5) 5) (int_range (-5) 5)))
    (fun coords ->
      let jobs = List.map (fun (x, y) -> point2 x y) coords in
      Demand_map.total (Demand_map.of_jobs 2 jobs) = List.length jobs)

let suite =
  [
    Alcotest.test_case "of_jobs aggregates" `Quick test_of_jobs_aggregates;
    Alcotest.test_case "add zero" `Quick test_add_zero_is_identity;
    Alcotest.test_case "bounding box" `Quick test_bounding_box;
    Alcotest.test_case "bounding box empty" `Quick test_bounding_box_empty;
    Alcotest.test_case "square workload" `Quick test_workload_square;
    Alcotest.test_case "line workload" `Quick test_workload_line;
    Alcotest.test_case "point workload" `Quick test_workload_point;
    Alcotest.test_case "uniform determinism" `Quick test_workload_uniform_determinism;
    Alcotest.test_case "clustered inside box" `Quick test_workload_clustered_inside_box;
    Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
    Alcotest.test_case "shuffle preserves demand" `Quick test_workload_shuffled_same_demand;
    Alcotest.test_case "mixture merges" `Quick test_workload_mixture;
    Alcotest.test_case "translate" `Quick test_workload_translate;
    QCheck_alcotest.to_alcotest prop_of_jobs_total;
  ]

(* appended: moving hotspot generator *)
let test_moving_hotspot_shape () =
  let rng = Rng.create 5 in
  let w = Workload.moving_hotspot ~rng ~start:[| 0; 0 |] ~steps:10 ~jobs_per_step:3 in
  Alcotest.(check int) "job count" 30 (Array.length w.Workload.jobs);
  (* Consecutive job groups drift by at most one step. *)
  for i = 0 to Array.length w.Workload.jobs - 2 do
    Alcotest.(check bool) "drift at most 1" true
      (Point.l1_dist w.Workload.jobs.(i) w.Workload.jobs.(i + 1) <= 1)
  done

let suite = suite @ [ Alcotest.test_case "moving hotspot shape" `Quick test_moving_hotspot_shape ]

(* appended: add/remove validation (streaming deltas) *)
let test_add_negative_raises () =
  let dm = Demand_map.empty 2 in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Demand_map.add: negative demand") (fun () ->
      ignore (Demand_map.add dm (point2 0 0) (-1)))

let test_remove_semantics () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 3); (point2 1 1, 1) ] in
  let dm = Demand_map.remove dm (point2 0 0) 2 in
  Alcotest.(check int) "partial removal" 1 (Demand_map.value dm (point2 0 0));
  Alcotest.(check int) "support kept" 2 (Demand_map.support_size dm);
  let dm = Demand_map.remove dm (point2 1 1) 1 in
  Alcotest.(check int) "binding dropped at 0" 1 (Demand_map.support_size dm);
  Alcotest.(check int) "value gone" 0 (Demand_map.value dm (point2 1 1));
  let same = Demand_map.remove dm (point2 0 0) 0 in
  Alcotest.(check int) "remove 0 is identity" 1 (Demand_map.value same (point2 0 0))

let test_remove_below_zero_raises () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 1) ] in
  Alcotest.check_raises "below zero"
    (Invalid_argument "Demand_map.remove: demand would become negative")
    (fun () -> ignore (Demand_map.remove dm (point2 0 0) 2));
  Alcotest.check_raises "absent point"
    (Invalid_argument "Demand_map.remove: demand would become negative")
    (fun () -> ignore (Demand_map.remove dm (point2 9 9) 1));
  Alcotest.check_raises "negative amount"
    (Invalid_argument "Demand_map.remove: negative demand") (fun () ->
      ignore (Demand_map.remove dm (point2 0 0) (-1)))

(* A total past max_int used to wrap to a negative demand (or to 0,
   leaving a zero-valued binding). *)
let test_add_overflow_raises () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, max_int) ] in
  (match Demand_map.add dm (point2 0 0) 1 with
  | exception Energy.Overflow _ -> ()
  | _ -> Alcotest.fail "a total past max_int must raise");
  Alcotest.(check int) "map unchanged" max_int (Demand_map.value dm (point2 0 0))

(* Four rows of 2^61 at distinct points total 2^63, which an unchecked
   fold wrapped to 0: the daemon then answered ω* = 0 and no witness. *)
let test_total_overflow_raises () =
  let dm = Demand_map.of_alist 2 (List.init 4 (fun x -> (point2 x 0, 1 lsl 61))) in
  match Demand_map.total dm with
  | exception Energy.Overflow _ -> ()
  | t -> Alcotest.failf "a total past max_int must raise, not return %d" t

let test_equal () =
  let a = Demand_map.of_alist 2 [ (point2 0 0, 3); (point2 1 2, 5) ] in
  let b = Demand_map.of_alist 2 [ (point2 1 2, 5); (point2 0 0, 1); (point2 0 0, 2) ] in
  Alcotest.(check bool) "order and split rows do not matter" true (Demand_map.equal a b);
  Alcotest.(check bool) "a value differs" false
    (Demand_map.equal a (Demand_map.add a (point2 0 0) 1));
  Alcotest.(check bool) "a point more" false
    (Demand_map.equal a (Demand_map.add a (point2 4 4) 1));
  Alcotest.(check bool) "a point back out" true
    (Demand_map.equal a (Demand_map.remove (Demand_map.add a (point2 4 4) 1) (point2 4 4) 1));
  Alcotest.(check bool) "dimension counts" false
    (Demand_map.equal (Demand_map.empty 2) (Demand_map.empty 3))

let suite =
  suite
  @ [
      Alcotest.test_case "add overflow raises" `Quick test_add_overflow_raises;
      Alcotest.test_case "total overflow raises" `Quick test_total_overflow_raises;
      Alcotest.test_case "equal" `Quick test_equal;
      Alcotest.test_case "add negative raises" `Quick test_add_negative_raises;
      Alcotest.test_case "remove semantics" `Quick test_remove_semantics;
      Alcotest.test_case "remove below zero raises" `Quick
        test_remove_below_zero_raises;
    ]
