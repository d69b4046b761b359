(* The parametric max-flow driver behind Transport.min_uniform_supply:
   golden breakpoint families on hand-checked instances, degenerate
   solve cases on raw arenas, monotone-family invariants, the
   lookup-vs-exhaustive-dual golden, and integer-envelope completeness
   of [refine_all] against a per-level brute force. *)

let random_instance rng =
  let s = 1 + Rng.int rng 5 and d = 1 + Rng.int rng 5 in
  let t = Transport.create ~n_suppliers:s ~n_demands:d in
  for j = 0 to d - 1 do
    Transport.set_demand t j (Rng.int rng 7)
  done;
  for i = 0 to s - 1 do
    for j = 0 to d - 1 do
      if Rng.bool rng then Transport.add_link t ~supplier:i ~demand:j
    done
  done;
  t

let scaled_copy t ~scale =
  let c =
    Transport.create ~n_suppliers:(Transport.n_suppliers t)
      ~n_demands:(Transport.n_demands t)
  in
  for j = 0 to Transport.n_demands t - 1 do
    Transport.set_demand c j (Transport.demand t j * scale)
  done;
  Transport.iter_links t (fun ~supplier ~demand ->
      Transport.add_link c ~supplier ~demand);
  c

(* Two suppliers; demand 0 (6 units) reachable only from supplier 0,
   demand 1 (2 units) from both.  At scale 1 the Newton sweep probes
   level 4 = ceil(8/2) first (value 6, one source edge crossing the cut)
   and lands on the answer 6 = max_J D(J)/|N(J)| in one jump. *)
let golden_instance () =
  let t = Transport.create ~n_suppliers:2 ~n_demands:2 in
  Transport.set_demand t 0 6;
  Transport.set_demand t 1 2;
  Transport.add_link t ~supplier:0 ~demand:0;
  Transport.add_link t ~supplier:0 ~demand:1;
  Transport.add_link t ~supplier:1 ~demand:1;
  t

let bps_testable = Alcotest.(array (triple int int int))

let test_golden_family () =
  let t = golden_instance () in
  (match Transport.min_uniform_supply t ~scale:1 with
  | Some v -> Alcotest.(check (float 1e-9)) "answer at scale 1" 6.0 v
  | None -> Alcotest.fail "feasible instance");
  Alcotest.(check bps_testable) "family at scale 1"
    [| (4, 6, 1); (6, 8, 1) |]
    (Transport.breakpoints t ~scale:1);
  (* A different scale is a different cached family; levels and values
     scale with it, the answer does not. *)
  Alcotest.(check bps_testable) "family at scale 2"
    [| (8, 12, 1); (12, 16, 1) |]
    (Transport.breakpoints t ~scale:2);
  match Transport.min_uniform_supply t ~scale:2 with
  | Some v -> Alcotest.(check (float 1e-9)) "answer at scale 2" 6.0 v
  | None -> Alcotest.fail "feasible instance"

let test_degenerate_solves () =
  (* Target 0 is feasible at level 0 without touching the arena. *)
  let net = Maxflow.create 2 in
  let pf = Paramflow.create ~net ~source:0 ~sink:1 ~src_edges:[||] ~target:0 in
  Alcotest.(check (option int)) "zero target" (Some 0) (Paramflow.solve pf);
  (* No parametric edges and a positive target: no finite level. *)
  let net = Maxflow.create 2 in
  let pf = Paramflow.create ~net ~source:0 ~sink:1 ~src_edges:[||] ~target:5 in
  Alcotest.(check (option int)) "no source edges" None (Paramflow.solve pf);
  (* A slope-0 cut below the target: the parametric edge leads to a dead
     end, so F is constantly 0 and the sweep stops at the first probe. *)
  let net = Maxflow.create 3 in
  let e = Maxflow.add_edge net ~src:0 ~dst:2 ~cap:0 in
  let pf =
    Paramflow.create ~net ~source:0 ~sink:1 ~src_edges:[| e |] ~target:3
  in
  Alcotest.(check (option int)) "dead-end slope 0" None (Paramflow.solve pf);
  Alcotest.(check bool) "cached after solve" true (Paramflow.solved pf);
  Alcotest.(check bps_testable) "one slope-0 probe recorded" [| (3, 0, 0) |]
    (Paramflow.breakpoints pf)

let prop_family_monotone =
  (* Breakpoint families are cuts of a concave non-decreasing F: levels
     strictly increase, values are non-decreasing and capped by the
     target, slopes are non-increasing; the last probe is the answer
     when one exists. *)
  QCheck.Test.make ~name:"breakpoint family is monotone" ~count:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 20))
    (fun (seed, scale) ->
      let rng = Rng.create seed in
      let t = random_instance rng in
      let bps = Transport.breakpoints t ~scale in
      let target = Transport.total_demand t * scale in
      let ok = ref true in
      Array.iteri
        (fun i (u, v, k) ->
          if v > target || k < 0 then ok := false;
          if i > 0 then begin
            let pu, pv, pk = bps.(i - 1) in
            if u <= pu || v < pv || k > pk then ok := false
          end)
        bps;
      (match Transport.min_uniform_supply t ~scale with
      | Some a when Transport.total_demand t > 0 ->
          let last_u, last_v, _ = bps.(Array.length bps - 1) in
          if last_v <> target then ok := false;
          if a <> float_of_int last_u /. float_of_int scale then ok := false
      | Some _ -> if bps <> [||] then ok := false
      | None -> ());
      !ok)

let test_answer_matches_exhaustive_dual () =
  (* Lemma 2.2.2 golden through the parametric path: the last breakpoint
     level over scale = max_J D(J)/|N(J)| whenever the dual denominator
     divides the scale (60 = lcm(1..6) covers up to 6 suppliers). *)
  let rng = Rng.create 271828 in
  let scale = 60 in
  let checked = ref 0 in
  while !checked < 40 do
    let t = random_instance rng in
    let dual = Reference.transport_dual t in
    if dual <> infinity && Transport.total_demand t > 0 then begin
      incr checked;
      let bps = Transport.breakpoints t ~scale in
      let last_u, _, _ = bps.(Array.length bps - 1) in
      Alcotest.(check (float 1e-9)) "last breakpoint = dual" dual
        (float_of_int last_u /. float_of_int scale)
    end
  done

let prop_envelope_complete =
  (* [refine_all] promises that between the first probe and the answer
     no integer level hides an undiscovered piece: at every such level,
     F (recomputed cold) equals the minimum over the recorded tangent
     lines. *)
  QCheck.Test.make ~name:"refined family = integer lower envelope" ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, scale) ->
      let rng = Rng.create seed in
      let t = random_instance rng in
      let bps = Transport.breakpoints t ~scale in
      let m = Array.length bps in
      if m = 0 then true
      else begin
        let c = scaled_copy t ~scale in
        let first, _, _ = bps.(0) and last, _, _ = bps.(m - 1) in
        let ok = ref true in
        for u = first to last do
          let brute = Transport.max_served c ~supply:(fun _ -> u) in
          let env =
            Array.fold_left
              (fun acc (ui, vi, ki) -> min acc (vi + (ki * (u - ui))))
              max_int bps
          in
          if brute <> env then ok := false
        done;
        !ok
      end)

let suite =
  [
    Alcotest.test_case "golden breakpoint family" `Quick test_golden_family;
    Alcotest.test_case "degenerate solves" `Quick test_degenerate_solves;
    Alcotest.test_case "answer matches exhaustive dual" `Quick
      test_answer_matches_exhaustive_dual;
    QCheck_alcotest.to_alcotest prop_family_monotone;
    QCheck_alcotest.to_alcotest prop_envelope_complete;
  ]
