(* Determinism and distributional sanity of the SplitMix64 generator. *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_int_in_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_int_covers_all_values () =
  let rng = Rng.create 9 in
  let seen = Array.make 6 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all (fun b -> b) seen)

let test_int_unbiased () =
  (* Chi-square-ish sanity: each of 8 buckets within 20% of expectation. *)
  let rng = Rng.create 10 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = n / 8 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true
        (abs (c - expected) < expected / 5))
    counts

let test_float_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_shuffle_permutes () =
  let rng = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_zipf_range_and_skew () =
  let rng = Rng.create 14 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let r = Rng.zipf rng ~n:10 ~s:1.2 in
    Alcotest.(check bool) "rank in range" true (r >= 1 && r <= 10);
    counts.(r - 1) <- counts.(r - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 dominates rank 10" true (counts.(0) > 4 * counts.(9))

(* SplitMix64 bit for bit: any change to the state representation must
   keep these streams, which every seeded digest in the repo rests on. *)
let test_splitmix64_pinned () =
  (* Draws in call order, whatever order [List.init] evaluates in. *)
  let rec draws n f = if n = 0 then [] else let x = f () in x :: draws (n - 1) f in
  let stream r n = draws n (fun () -> Rng.int64 r) in
  let check_stream name expected r =
    Alcotest.(check (list int64)) name expected (stream r (List.length expected))
  in
  check_stream "seed 0"
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
      0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
      0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ]
    (Rng.create 0);
  check_stream "seed 1"
    [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
      0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
      0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL ]
    (Rng.create 1);
  check_stream "seed 42"
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ]
    (Rng.create 42);
  let r = Rng.create 5 in
  let units = draws 4 (fun () -> Rng.float r 1.0) in
  let floats = units @ [ Rng.float r 3.5 ] in
  Alcotest.(check (list int64)) "float draws"
    [ 0x3fdaabfbe06a3c6aL; 0x3fe1299864de892eL; 0x3fe910f06cc3f2e9L;
      0x3fe89a67e3af5016L; 0x4007a83cb8111ff5L ]
    (List.map Int64.bits_of_float floats);
  let r = Rng.create 6 in
  let ints = draws 4 (fun () -> Rng.int r 1000) in
  let big = Rng.int r (1 lsl 40) in
  let ranged = Rng.int_in r (-5) 5 in
  let bits = Int64.to_int (Int64.shift_right_logical (Rng.int64 r) 34) in
  Alcotest.(check (list int)) "int draws"
    [ 946; 188; 459; 613; 361359947697; 1; 1001485613 ]
    (ints @ [ big; ranged; bits ])

let suite =
  [
    Alcotest.test_case "splitmix64 pinned" `Quick test_splitmix64_pinned;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers all values" `Quick test_int_covers_all_values;
    Alcotest.test_case "int unbiased" `Quick test_int_unbiased;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "zipf range and skew" `Quick test_zipf_range_and_skew;
  ]
