(* The flow-based LP oracle vs. the combinatorial characterizations:
   Lemma 2.2.2 (per-radius) and Lemma 2.2.3 (program 2.8). *)

let point2 x y = [| x; y |]

let test_lp_radius_zero_is_max_demand () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 4); (point2 3 3, 9) ] in
  Alcotest.(check (float 1e-6)) "radius 0" 9.0 (Oracle.lp_value ~radius:0 dm)

let test_lp_value_single_point () =
  (* One point with demand d, radius r: ω = d / |N_r|. *)
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 26) ] in
  Alcotest.(check (float 1e-4)) "r=1: 26/5" (26.0 /. 5.0) (Oracle.lp_value ~radius:1 dm);
  Alcotest.(check (float 1e-4)) "r=2: 26/13" 2.0 (Oracle.lp_value ~radius:2 dm)

let test_lp_value_non_increasing_in_radius () =
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let pts =
      List.init 4 (fun _ -> (point2 (Rng.int rng 4) (Rng.int rng 4), 1 + Rng.int rng 9))
    in
    let dm = Demand_map.of_alist 2 pts in
    let prev = ref infinity in
    for r = 0 to 4 do
      let v = Oracle.lp_value ~radius:r dm in
      Alcotest.(check bool)
        (Printf.sprintf "ω(r) non-increasing at r=%d" r)
        true
        (v <= !prev +. 1e-6);
      prev := v
    done
  done

let test_lp_value_empty () =
  Alcotest.(check (float 0.0)) "empty demand" 0.0
    (Oracle.lp_value ~radius:3 (Demand_map.empty 2))

let test_omega_star_single_point () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 5) ] in
  (* Bracket [1,2): lp(1) = 5/5 = 1 -> ω* = 1. *)
  Alcotest.(check (float 1e-4)) "ω* = 1" 1.0 (Oracle.omega_star dm)

let test_omega_star_equals_subset_max () =
  (* Lemma 2.2.3: program (2.8) = max_T ω_T, checked against the
     exponential subset enumeration on random small instances. *)
  let rng = Rng.create 271828 in
  for _ = 1 to 15 do
    let support = 1 + Rng.int rng 5 in
    let pts =
      List.init support (fun _ ->
          (point2 (Rng.int rng 4) (Rng.int rng 4), 1 + Rng.int rng 12))
    in
    let dm = Demand_map.of_alist 2 pts in
    let lp = Oracle.omega_star dm in
    let subsets = Reference.omega_dual dm in
    Alcotest.(check (float 1e-4))
      (Printf.sprintf "ω* agreement (lp=%g subsets=%g)" lp subsets)
      subsets lp
  done

let test_omega_star_equals_subset_max_1d () =
  let rng = Rng.create 31415 in
  for _ = 1 to 10 do
    let pts = List.init 4 (fun _ -> ([| Rng.int rng 6 |], 1 + Rng.int rng 10)) in
    let dm = Demand_map.of_alist 1 pts in
    Alcotest.(check (float 1e-4))
      "1d agreement"
      (Reference.omega_dual dm)
      (Oracle.omega_star dm)
  done

let test_omega_star_line_example () =
  (* Demand d per point on a length-m segment: for m large relative to ω,
     ω* ~ W2(d).  Exact small case: segment of 5 points, d = 2 each.
     Validated against the subset enumeration. *)
  let dm = Demand_map.of_alist 2 (List.init 5 (fun i -> (point2 i 0, 2))) in
  Alcotest.(check (float 1e-4))
    "line instance"
    (Reference.omega_dual dm)
    (Oracle.omega_star dm)

let suite =
  [
    Alcotest.test_case "lp radius 0 = max demand" `Quick test_lp_radius_zero_is_max_demand;
    Alcotest.test_case "lp single point" `Quick test_lp_value_single_point;
    Alcotest.test_case "lp non-increasing in radius" `Quick test_lp_value_non_increasing_in_radius;
    Alcotest.test_case "lp empty" `Quick test_lp_value_empty;
    Alcotest.test_case "ω* single point" `Quick test_omega_star_single_point;
    Alcotest.test_case "ω* = subset max (Lemma 2.2.3)" `Quick test_omega_star_equals_subset_max;
    Alcotest.test_case "ω* = subset max, 1d" `Quick test_omega_star_equals_subset_max_1d;
    Alcotest.test_case "ω* line instance" `Quick test_omega_star_line_example;
  ]

(* --- appended: duality witness extraction --- *)

let test_witness_single_point () =
  let dm = Demand_map.of_alist 2 [ (point2 0 0, 26) ] in
  match Oracle.witness dm with
  | None -> Alcotest.fail "non-empty demand must have a witness"
  | Some (points, w) ->
      Alcotest.(check int) "the hot point itself" 1 (List.length points);
      Alcotest.(check (float 1e-3)) "tight value" (Oracle.omega_star dm) w

(* The witness is exact on tiny instances: a non-empty set of demand
   positions whose ω_T is the exhaustive max_T ω_T of Lemma 2.2.3, bit
   for bit — no grid too coarse to separate, no tolerance. *)
let prop_witness_exact =
  QCheck.Test.make ~name:"witness exact on tiny instances" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 2 in
      let site _ =
        (Array.init dim (fun _ -> Rng.int rng 6), 1 + Rng.int rng 30)
      in
      let pts = List.init (1 + Rng.int rng 10) site in
      let dm = Demand_map.of_alist dim pts in
      match Oracle.witness dm with
      | None -> QCheck.Test.fail_reportf "seed %d: no witness" seed
      | Some (points, w) ->
          let dual = Reference.omega_dual dm in
          let n = List.length points in
          if
            n = 0
            || List.length (List.sort_uniq Point.compare points) <> n
            || not (List.for_all (fun p -> Demand_map.value dm p > 0) points)
          then
            QCheck.Test.fail_reportf "seed %d: not a subset of the support"
              seed
          else if not (Float.equal w dual) then
            QCheck.Test.fail_reportf "seed %d: ω_T %.17g <> max ω_T %.17g"
              seed w dual
          else true)

let test_witness_empty () =
  Alcotest.(check bool) "no witness for empty demand" true
    (Oracle.witness (Demand_map.empty 2) = None)

let suite =
  suite
  @ [
      Alcotest.test_case "witness: single point" `Quick test_witness_single_point;
      QCheck_alcotest.to_alcotest prop_witness_exact;
      Alcotest.test_case "witness: empty" `Quick test_witness_empty;
    ]

(* --- appended: bracket 0 in closed form --- *)

(* The scan reads bracket 0 as max_x d(x) instead of solving it; the
   arena solve of [lp_value ~radius:0] is the reference, bit for bit. *)
let prop_radius_zero_closed_form =
  QCheck.Test.make ~name:"lp radius 0 = max demand, bit for bit" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 3 in
      (* few positions, many rows: most sites carry several jobs *)
      let site _ = (Array.init dim (fun _ -> Rng.int rng 4), 1 + Rng.int rng 40) in
      let dm = Demand_map.of_alist dim (List.init (1 + Rng.int rng 16) site) in
      let closed = float_of_int (Demand_map.max_demand dm) in
      let solved = Oracle.lp_value ~radius:0 dm in
      Float.equal closed solved
      || QCheck.Test.fail_reportf "seed %d: max d %.17g <> lp_value 0 %.17g"
           seed closed solved)

(* A one-shot ω* solves the brackets 1 .. ⌊ω*⌋ and nothing else. *)
let test_brackets_solved () =
  let m = Metrics.counter "oracle.radius_brackets" in
  let rng = Rng.create 8 in
  let random _ =
    Demand_map.of_alist 2
      (List.init (1 + Rng.int rng 8) (fun _ ->
           (point2 (Rng.int rng 5) (Rng.int rng 5), 1 + Rng.int rng 30)))
  in
  let single d = Demand_map.of_alist 2 [ (point2 0 0, d) ] in
  let floors = Hashtbl.create 8 in
  List.iter
    (fun dm ->
      let b0 = Metrics.count m in
      let v = Oracle.omega_star dm in
      let floor = int_of_float (Float.floor v) in
      Hashtbl.replace floors floor ();
      Alcotest.(check int)
        (Printf.sprintf "brackets for ω* = %g" v)
        floor
        (Metrics.count m - b0))
    ([ single 1; single 5; single 26; single 100; single 1000 ] @ List.init 40 random);
  Alcotest.(check bool) "ω* spans several brackets" true (Hashtbl.length floors >= 4)

(* ω* = 1 takes its set from bracket 0, which the scan does not solve;
   the witness reads it off the demand values.  The set is the hot site
   alone, a strict subset of the support. *)
let test_witness_from_bracket_zero () =
  let dm =
    Demand_map.of_alist 2 [ (point2 0 0, 2); (point2 3 0, 1); (point2 6 0, 1) ]
  in
  Alcotest.(check (float 0.0)) "ω* = 1" 1.0 (Oracle.omega_star dm);
  match Oracle.witness dm with
  | None -> Alcotest.fail "non-empty demand must have a witness"
  | Some (points, w) ->
      Alcotest.(check (list (array int))) "the hot site" [ point2 0 0 ] points;
      Alcotest.(check (float 0.0)) "ω_T" 1.0 w

(* A cold ω* builds its instance once at its final size: the builder's
   tables are sized from the support and the arena is reserved once per
   bracket.  Loadgen's cold-miss demands, as the serving daemon sees
   them. *)
let test_cold_allocation () =
  let dms =
    Array.map
      (fun r -> r.Protocol.demand)
      (Loadgen.queries ~seed:1 ~mix:Loadgen.Cold_miss ~n:500)
  in
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  Array.iter (fun dm -> ignore (Oracle.omega_star dm)) dms;
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let calls = float_of_int (Array.length dms) in
  let minor = (w1 -. w0) /. calls in
  let major = (s1.Gc.major_words -. s0.Gc.major_words) /. calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per call (at most 6000)" minor)
    true (minor <= 6000.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words per call (at most 1500)" major)
    true (major <= 1500.0)

(* The radius-0 tight set without a flow: the arithmetic of
   [Transport.self_served_binding] against a radius-0 instance solved
   and read through [Transport.binding_demands].  Few values, so maxima
   repeat and sites tie at every level. *)
let self_served_points dm =
  let support = Array.of_list (Demand_map.support dm) in
  List.map
    (fun j -> support.(j))
    (Transport.self_served_binding (Array.map (Demand_map.value dm) support))

let prop_radius0_tight_set =
  QCheck.Test.make ~name:"radius-0 tight set = flow reference" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 3 in
      let top = 1 + Rng.int rng 5 in
      let site _ = (Array.init dim (fun _ -> Rng.int rng 5), 1 + Rng.int rng top) in
      let dm = Demand_map.of_alist dim (List.init (1 + Rng.int rng 20) site) in
      let fast = self_served_points dm and flow = Reference.radius0_tight_set dm in
      List.equal Point.equal fast flow
      || QCheck.Test.fail_reportf "seed %d: %d points, the flow reads %d" seed
           (List.length fast) (List.length flow))

(* The same on loadgen's cold-miss demands, as the daemon sees them; at
   ω* = 1 the witness's points are that set. *)
let test_radius0_tight_set_loadgen () =
  let checked = ref 0 and at_one = ref 0 in
  List.iter
    (fun seed ->
      Array.iter
        (fun r ->
          let dm = r.Protocol.demand in
          let flow = Reference.radius0_tight_set dm in
          if not (List.equal Point.equal (self_served_points dm) flow) then
            Alcotest.failf "seed %d: radius-0 tight set differs" seed;
          if Oracle.omega_star dm = 1.0 then begin
            incr at_one;
            match Oracle.witness dm with
            | Some (points, _) when List.equal Point.equal points flow -> ()
            | _ -> Alcotest.failf "seed %d: witness at ω* = 1 differs" seed
          end;
          incr checked)
        (Loadgen.queries ~seed ~mix:Loadgen.Cold_miss ~n:3000))
    [ 1; 2; 3 ];
  Alcotest.(check int) "demands checked" 9000 !checked;
  Alcotest.(check bool)
    (Printf.sprintf "%d witnesses at ω* = 1" !at_one)
    true (!at_one >= 1000)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_radius_zero_closed_form;
      QCheck_alcotest.to_alcotest prop_radius0_tight_set;
      Alcotest.test_case "radius-0 tight set on loadgen demands" `Slow
        test_radius0_tight_set_loadgen;
      Alcotest.test_case "ω* solves ⌊ω*⌋ brackets" `Quick test_brackets_solved;
      Alcotest.test_case "witness from bracket 0" `Quick
        test_witness_from_bracket_zero;
      Alcotest.test_case "cold ω* allocation" `Quick test_cold_allocation;
    ]
