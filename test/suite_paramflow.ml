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

(* A hand-built arena with a fixed-capacity source edge beside the
   parametric ones: suppliers a, b are parametric, supplier c has a
   fixed capacity of 3; site x is reachable from a and b, site y from b
   and c.  The sweep's lower bounds must count the fixed edge wherever it
   leaves a cut — the trivial cut {source} included — or they overshoot
   the minimal level (at demands 4 and 5 the answer is 3, where the
   parametric edges alone would claim ⌈9/2⌉ = 5).  Each pair of demands
   is a warm re-solve from the previous pair's flow, level and cut;
   halfway through, a parametric supplier d is grown onto x, so the
   recorded cut meets a vertex added after it, and the first solve after
   the growth starts at the old level with d's edge still at 0.  Every
   answer is checked against a least-level scan of fresh reference
   solves. *)
let test_fixed_source_edge () =
  let src = 0 and snk = 1 and a = 2 and b = 3 and c = 4 and x = 5 and y = 6 in
  let fixed = 3 and big = 100 in
  let net = Maxflow.create 7 in
  let param v = Maxflow.add_edge net ~src ~dst:v ~cap:0 in
  let link (u, v) = ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:big) in
  let pa = param a and pb = param b in
  ignore (Maxflow.add_edge net ~src ~dst:c ~cap:fixed);
  let links = ref [ (a, x); (b, x); (b, y); (c, y) ] in
  List.iter link !links;
  let ex = Maxflow.add_edge net ~src:x ~dst:snk ~cap:0 in
  let ey = Maxflow.add_edge net ~src:y ~dst:snk ~cap:0 in
  let params = ref [ a; b ] in
  let pf =
    Paramflow.create ~net ~source:src ~sink:snk ~src_edges:[| pa; pb |]
      ~target:0
  in
  let least_level dx dy =
    let target = dx + dy in
    let routes u =
      let edges =
        [ (src, c, fixed); (x, snk, dx); (y, snk, dy) ]
        @ List.map (fun v -> (src, v, u)) !params
        @ List.map (fun (p, q) -> (p, q, big)) !links
      in
      let n = Maxflow.n_vertices net in
      fst (Reference.max_flow ~n ~edges ~source:src ~sink:snk) = target
    in
    let rec scan u = if routes u then u else scan (u + 1) in
    scan 0
  in
  let solve_at (dx, dy) =
    Paramflow.patch_sink_cap pf ex dx;
    Paramflow.patch_sink_cap pf ey dy;
    Paramflow.retarget pf ~target:(dx + dy);
    Alcotest.(check (option int))
      (Printf.sprintf "demands %d, %d (%d parametric)" dx dy
         (List.length !params))
      (Some (least_level dx dy))
      (Paramflow.solve pf)
  in
  List.iter solve_at
    [ (4, 5); (4, 8); (4, 2); (9, 2); (9, 1); (1, 1); (0, 3); (6, 6); (5, 6) ];
  let d = Maxflow.add_vertex net in
  let pd = param d in
  link (d, x);
  links := (d, x) :: !links;
  params := d :: !params;
  Paramflow.grow pf ~src_edges:[| pa; pb; pd |];
  List.iter solve_at
    [ (9, 6); (5, 6); (9, 2); (12, 0); (2, 9); (3, 9); (0, 0); (7, 4) ]

(* The arena of [test_fixed_source_edge] under a fixed trace of sink
   patches, each followed by one solve: raises and lowerings of either
   site, with the patched site inside or outside the recorded cut, and
   patches that leave the answer's certificate standing.  Each answer is
   pinned with the probes its solve ran.  The driver keeps each cut's
   bound constants and moves them with every patch instead of scanning
   the arena again; a constant that missed a patch would show here as a
   wrong answer (a floor too high) or an extra probe (a floor too low). *)
let test_patch_trace_pins () =
  let src = 0 and snk = 1 and a = 2 and b = 3 and c = 4 and x = 5 and y = 6 in
  let net = Maxflow.create 7 in
  let param v = Maxflow.add_edge net ~src ~dst:v ~cap:0 in
  let link (u, v) = ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:100) in
  let pa = param a and pb = param b in
  ignore (Maxflow.add_edge net ~src ~dst:c ~cap:3);
  List.iter link [ (a, x); (b, x); (b, y); (c, y) ];
  let ex = Maxflow.add_edge net ~src:x ~dst:snk ~cap:0 in
  let ey = Maxflow.add_edge net ~src:y ~dst:snk ~cap:0 in
  let pf =
    Paramflow.create ~net ~source:src ~sink:snk ~src_edges:[| pa; pb |]
      ~target:0
  in
  let probes = Metrics.counter "paramflow.probes" in
  let step (dx, dy) =
    Paramflow.patch_sink_cap pf ex dx;
    Paramflow.patch_sink_cap pf ey dy;
    Paramflow.retarget pf ~target:(dx + dy);
    let before = Metrics.count probes in
    let answer = Paramflow.solve pf in
    (dx, dy, answer, Metrics.count probes - before)
  in
  let trace =
    [ (4, 5); (8, 5); (8, 9); (8, 2); (3, 2); (3, 7); (12, 7); (12, 1); (0, 1);
      (0, 6); (7, 6); (7, 0); (2, 0); (2, 11); (10, 11); (10, 4); (1, 4);
      (6, 4); (6, 3); (6, 10); (6, 10); (6, 9); (5, 9) ]
  in
  let pins =
    [ (4, 5, Some 3, 1); (8, 5, Some 5, 1); (8, 9, Some 7, 1); (8, 2, Some 4, 1);
      (3, 2, Some 2, 2); (3, 7, Some 4, 1); (12, 7, Some 8, 1); (12, 1, Some 6, 1);
      (0, 1, Some 0, 1); (0, 6, Some 3, 2); (7, 6, Some 5, 1); (7, 0, Some 4, 2);
      (2, 0, Some 1, 1); (2, 11, Some 8, 2); (10, 11, Some 9, 1); (10, 4, Some 6, 1);
      (1, 4, Some 1, 1); (6, 4, Some 4, 1); (6, 3, Some 3, 1); (6, 10, Some 7, 1);
      (6, 10, Some 7, 0); (6, 9, Some 6, 1); (5, 9, Some 6, 0) ]
  in
  let show (dx, dy, answer, probes) =
    Printf.sprintf "(%d, %d): %s in %d probes" dx dy
      (match answer with Some u -> string_of_int u | None -> "none")
      probes
  in
  Alcotest.(check (list string)) "answers and probes"
    (List.map show pins)
    (List.map (fun d -> show (step d)) trace)

let suite =
  [
    Alcotest.test_case "degenerate solves" `Quick test_degenerate_solves;
    Alcotest.test_case "fixed-capacity source edge" `Quick
      test_fixed_source_edge;
    Alcotest.test_case "patch trace: answers and probes pinned" `Quick
      test_patch_trace_pins;
    Alcotest.test_case "answer matches exhaustive dual" `Quick
      test_answer_matches_exhaustive_dual;
  ]
