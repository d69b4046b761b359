let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_f ?eps msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true (feq ?eps expected actual)

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.0 |] in
  check_f "min" (-1.0) lo;
  check_f "max" 3.0 hi

let test_linear_fit_exact () =
  let a, b, r2 = Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  check_f "intercept" 1.0 a;
  check_f "slope" 2.0 b;
  check_f "r2" 1.0 r2

let test_linear_fit_r2_below_one_with_noise () =
  let _, b, r2 = Stats.linear_fit [| (0.0, 0.0); (1.0, 1.2); (2.0, 1.8); (3.0, 3.1) |] in
  Alcotest.(check bool) "slope near 1" true (Float.abs (b -. 1.0) < 0.2);
  Alcotest.(check bool) "r2 in (0.9, 1)" true (r2 > 0.9 && r2 <= 1.0)

let test_loglog_slope_quadratic () =
  let pts = Array.init 6 (fun i ->
      let x = float_of_int (i + 2) in
      (x, 3.0 *. (x ** 2.0)))
  in
  check_f ~eps:1e-6 "exponent 2" 2.0 (Stats.loglog_slope pts)

let test_geometric_mean () =
  check_f "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

let test_empty_raises () =
  Alcotest.check_raises "min_max of empty" (Invalid_argument "Stats.min_max: empty array")
    (fun () -> ignore (Stats.min_max [||]))

let suite =
  [
    Alcotest.test_case "min max" `Quick test_min_max;
    Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
    Alcotest.test_case "linear fit with noise" `Quick test_linear_fit_r2_below_one_with_noise;
    Alcotest.test_case "loglog slope" `Quick test_loglog_slope_quadratic;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
  ]

(* --- appended: the shared binary heap --- *)

(* Pops everything: the elements in ascending order. *)
let drain h =
  let rec loop acc = match Heap.pop h with None -> List.rev acc | Some x -> loop (x :: acc) in
  loop []

let test_heap_sorts () =
  let h = Heap.create ~compare:Int.compare () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "ascending drain" [ 1; 1; 3; 4; 5 ] (drain h);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_push_pop () =
  let h = Heap.create ~compare:Int.compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 9;
  Heap.push h 2;
  Alcotest.(check int) "size" 2 (Heap.size h);
  Alcotest.(check (option int)) "pop min" (Some 2) (Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 9) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.(check bool) "empty after pops" true (Heap.is_empty h)

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap drain = List.sort" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create ~compare:Int.compare () in
      List.iter (Heap.push h) xs;
      drain h = List.sort Int.compare xs)

let prop_heap_interleaved_ops =
  QCheck.Test.make ~name:"heap correct under interleaved push/pop" ~count:100
    QCheck.(list (int_range 0 100))
    (fun xs ->
      (* Push two, pop one, repeatedly; collect pops; then drain.  The
         multiset of outputs must equal the inputs and each drain segment
         must come out sorted. *)
      let h = Heap.create ~compare:Int.compare () in
      let popped = ref [] in
      List.iteri
        (fun i x ->
          Heap.push h x;
          if i mod 2 = 1 then
            match Heap.pop h with Some v -> popped := v :: !popped | None -> ())
        xs;
      let rest = drain h in
      let all = List.sort Int.compare (!popped @ rest) in
      all = List.sort Int.compare xs
      && rest = List.sort Int.compare rest)

let suite =
  suite
  @ [
      Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
      Alcotest.test_case "heap push/pop" `Quick test_heap_push_pop;
      QCheck_alcotest.to_alcotest prop_heap_matches_sort;
      QCheck_alcotest.to_alcotest prop_heap_interleaved_ops;
    ]
