(* The parametric max-flow driver behind Transport.min_uniform_supply:
   degenerate solve cases on raw arenas, and the answer against the
   exhaustive dual. *)

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
  Alcotest.(check bool) "cached after solve" true (Paramflow.solved pf)

let test_answer_matches_exhaustive_dual () =
  (* Lemma 2.2.2 golden through the parametric path: the answer equals
     max_J D(J)/|N(J)| whenever the dual denominator divides the LP grid,
     which it does here (at most 5 suppliers). *)
  let rng = Rng.create 271828 in
  let checked = ref 0 in
  while !checked < 40 do
    let t = random_instance rng in
    let dual = Reference.transport_dual t in
    if dual <> infinity && Transport.total_demand t > 0 then begin
      incr checked;
      match Transport.min_uniform_supply t with
      | Some v -> Alcotest.(check (float 1e-9)) "answer = dual" dual v
      | None -> Alcotest.fail "dual finite but no answer"
    end
  done

let suite =
  [
    Alcotest.test_case "degenerate solves" `Quick test_degenerate_solves;
    Alcotest.test_case "answer matches exhaustive dual" `Quick
      test_answer_matches_exhaustive_dual;
  ]
