(* Max-flow: known instances, min-cut certification, and agreement with a
   brute-force cut enumeration and a reference solver on random small
   networks. *)

let test_single_edge () =
  let net = Maxflow.create 2 in
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "value" 5 (Maxflow.max_flow net ~source:0 ~sink:1);
  Alcotest.(check int) "edge flow" 5 (Maxflow.flow_on net e)

let test_series_bottleneck () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:7);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:3);
  Alcotest.(check int) "bottleneck" 3 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_parallel_paths () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:4);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~cap:4);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:5);
  Alcotest.(check int) "sum of paths" 6 (Maxflow.max_flow net ~source:0 ~sink:3)

let test_classic_residual_instance () =
  (* The textbook instance where an augmenting path must be undone via a
     residual edge. *)
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~cap:1);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1);
  Alcotest.(check int) "value 2" 2 (Maxflow.max_flow net ~source:0 ~sink:3)

let test_disconnected () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:9);
  Alcotest.(check int) "zero flow" 0 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_zero_capacity () =
  let net = Maxflow.create 2 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:0);
  Alcotest.(check int) "zero" 0 (Maxflow.max_flow net ~source:0 ~sink:1)

(* Brute force: min cut by enumerating all vertex bipartitions. *)
let brute_force_min_cut ~n ~edges ~source ~sink =
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let side v = mask land (1 lsl v) <> 0 in
    if side source && not (side sink) then begin
      let cut =
        List.fold_left
          (fun acc (u, v, c) -> if side u && not (side v) then acc + c else acc)
          0 edges
      in
      if cut < !best then best := cut
    end
  done;
  !best

let random_network rng =
  let n = 2 + Rng.int rng 5 in
  let m = Rng.int rng 14 in
  let edges = ref [] in
  for _ = 1 to m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v, Rng.int rng 8) :: !edges
  done;
  (n, !edges)

let test_matches_brute_force () =
  let rng = Rng.create 2024 in
  for _ = 1 to 150 do
    let n, edges = random_network rng in
    let net = Maxflow.create n in
    List.iter (fun (u, v, c) -> ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:c)) edges;
    let flow = Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
    let cut = brute_force_min_cut ~n ~edges ~source:0 ~sink:(n - 1) in
    Alcotest.(check int) "max-flow = min-cut (brute force)" cut flow
  done

let test_min_cut_certifies () =
  let rng = Rng.create 77 in
  for _ = 1 to 50 do
    let n, edges = random_network rng in
    let net = Maxflow.create n in
    List.iter (fun (u, v, c) -> ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:c)) edges;
    let flow = Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
    let side = Array.make n false in
    Maxflow.min_cut_into net ~source:0 side;
    Alcotest.(check bool) "source on source side" true side.(0);
    Alcotest.(check bool) "sink on sink side" false side.(n - 1);
    let cut =
      List.fold_left
        (fun acc (u, v, c) -> if side.(u) && not side.(v) then acc + c else acc)
        0 edges
    in
    Alcotest.(check int) "cut value equals flow" flow cut
  done

let test_flow_conservation () =
  let rng = Rng.create 5150 in
  for _ = 1 to 50 do
    let n, edges = random_network rng in
    let net = Maxflow.create n in
    let ids = List.map (fun (u, v, c) -> ((u, v), Maxflow.add_edge net ~src:u ~dst:v ~cap:c)) edges in
    let value = Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
    let balance = Array.make n 0 in
    List.iter
      (fun ((u, v), id) ->
        let f = Maxflow.flow_on net id in
        Alcotest.(check bool) "0 <= flow <= cap" true (f >= 0);
        balance.(u) <- balance.(u) - f;
        balance.(v) <- balance.(v) + f)
      ids;
    Alcotest.(check int) "source emits value" (-value) balance.(0);
    Alcotest.(check int) "sink absorbs value" value balance.(n - 1);
    for v = 1 to n - 2 do
      Alcotest.(check int) "interior balanced" 0 balance.(v)
    done
  done

(* Arena semantics: warm-started capacity raises. *)

let test_set_even_caps_warm_start () =
  let net = Maxflow.create 2 in
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3 in
  Alcotest.(check int) "cold run" 3 (Maxflow.max_flow net ~source:0 ~sink:1);
  Maxflow.set_even_caps net [| e |] 5;
  Alcotest.(check int) "flow preserved across raise" 3 (Maxflow.flow_on net e);
  Alcotest.(check int) "increment only" 2 (Maxflow.max_flow net ~source:0 ~sink:1);
  Alcotest.(check int) "total routed" 5 (Maxflow.flow_on net e);
  (match Maxflow.set_even_caps net [| e |] 2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "lowering below the routed flow must raise")

let test_warm_start_matches_cold () =
  (* Raising a parametric source edge level by level and summing the
     warm-started increments must land on the same value a cold run at
     the final level computes. *)
  let rng = Rng.create 90210 in
  for _ = 1 to 40 do
    let n, edges = random_network rng in
    let warm = Maxflow.create (n + 1) in
    let cold = Maxflow.create (n + 1) in
    let src_w = Maxflow.add_edge warm ~src:n ~dst:0 ~cap:0 in
    let src_c = Maxflow.add_edge cold ~src:n ~dst:0 ~cap:0 in
    List.iter
      (fun (u, v, c) ->
        ignore (Maxflow.add_edge warm ~src:u ~dst:v ~cap:c);
        ignore (Maxflow.add_edge cold ~src:u ~dst:v ~cap:c))
      edges;
    let total = ref 0 in
    for level = 1 to 4 do
      Maxflow.set_even_caps warm [| src_w |] (level * 3);
      total := !total + Maxflow.max_flow warm ~source:n ~sink:(n - 1)
    done;
    Maxflow.set_even_caps cold [| src_c |] 12;
    Alcotest.(check int) "warm increments sum to cold value"
      (Maxflow.max_flow cold ~source:n ~sink:(n - 1))
      !total
  done

(* Differential against the test-side Dinic reference: the two must agree
   not only on the flow value (both are max flows) but on [min_cut_into],
   which writes the unique minimal source side and is therefore the same
   for every maximum flow. *)

let prop_matches_reference =
  QCheck.Test.make ~name:"push-relabel = dinic (value and min-cut side)"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, edges = random_network rng in
      let net = Maxflow.create n in
      List.iter
        (fun (u, v, c) -> ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:c))
        edges;
      let fp = Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
      let fd, sd = Reference.max_flow ~n ~edges ~source:0 ~sink:(n - 1) in
      let side = Array.make n false in
      Maxflow.min_cut_into net ~source:0 side;
      fd = fp && sd = side)

let test_add_vertex () =
  let net = Maxflow.create 2 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3);
  Alcotest.(check int) "cold run" 3 (Maxflow.max_flow net ~source:0 ~sink:1);
  let v = Maxflow.add_vertex net in
  Alcotest.(check int) "appended index" 2 v;
  Alcotest.(check int) "vertex count grows" 3 (Maxflow.n_vertices net);
  ignore (Maxflow.add_edge net ~src:0 ~dst:v ~cap:2);
  ignore (Maxflow.add_edge net ~src:v ~dst:1 ~cap:2);
  (* The old flow is retained; only the path through the new vertex is
     augmented. *)
  Alcotest.(check int) "increment through new vertex" 2
    (Maxflow.max_flow net ~source:0 ~sink:1)

let test_drain_even_caps_basic () =
  let net = Maxflow.create 3 in
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5 in
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:4);
  Alcotest.(check int) "cold run" 4 (Maxflow.max_flow net ~source:0 ~sink:2);
  let drained = Maxflow.drain_even_caps net [| e |] 2 ~source:0 ~sink:2 in
  Alcotest.(check int) "surplus cancelled to the sink" 2 drained;
  Alcotest.(check int) "flow lowered to the new cap" 2 (Maxflow.flow_on net e);
  Alcotest.(check int) "still maximal at the lower level" 0
    (Maxflow.max_flow net ~source:0 ~sink:2);
  (* Raising through the same entry point drains nothing and leaves the
     delta for the next run. *)
  Alcotest.(check int) "raise drains nothing" 0
    (Maxflow.drain_even_caps net [| e |] 5 ~source:0 ~sink:2);
  Alcotest.(check int) "re-augments the delta" 2
    (Maxflow.max_flow net ~source:0 ~sink:2)

let test_drain_even_caps_guards () =
  let net = Maxflow.create 3 in
  let src = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:2 in
  let interior = Maxflow.add_edge net ~src:1 ~dst:2 ~cap:2 in
  ignore (Maxflow.max_flow net ~source:0 ~sink:2);
  (match Maxflow.drain_even_caps net [| interior |] 1 ~source:0 ~sink:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interior tail must raise");
  (match Maxflow.drain_even_caps net [| src lxor 1 |] 1 ~source:0 ~sink:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd (residual) id must raise")

(* The flow the arena holds, read through [flow_on] on every edge the
   test built ([(u, v, capacity, id)]), is a valid flow of the given
   value: within every capacity, conserved at every inner vertex, and
   [value] out of [source] and into [sink]. *)
let valid_flow net ~n ~source ~sink edges value =
  let balance = Array.make n 0 in
  let within =
    List.for_all
      (fun (u, v, c, id) ->
        let f = Maxflow.flow_on net id in
        balance.(u) <- balance.(u) - f;
        balance.(v) <- balance.(v) + f;
        0 <= f && f <= c)
      edges
  in
  let conserved = ref true in
  Array.iteri
    (fun w b -> if w <> source && w <> sink && b <> 0 then conserved := false)
    balance;
  within && !conserved && balance.(source) = -value && balance.(sink) = value

let prop_drain_resume_matches_fresh =
  (* Lowering the parametric source edges with a drain and re-augmenting
     must land exactly where a fresh solve at the lower level lands, and
     raising them past the start level with [set_even_caps] and
     re-augmenting exactly where a fresh solve at the higher level does;
     the fresh solves are the test-side reference.  After every run and
     every drain the arena holds a valid flow of the value so far: a warm
     run may leave a different maximum flow than a cold one, and the next
     drain walks whichever it left. *)
  QCheck.Test.make ~name:"drain then warm resume = fresh solve (reference)"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, edges = random_network rng in
      let k = 1 + Rng.int rng 3 in
      let dsts = Array.init k (fun _ -> Rng.int rng n) in
      let hi = 6 and lo = Rng.int rng 6 in
      let up = hi + 1 + Rng.int rng 6 in
      let source = n and sink = n - 1 in
      let net = Maxflow.create (n + 1) in
      let src = Array.map (fun v -> Maxflow.add_edge net ~src:source ~dst:v ~cap:hi) dsts in
      let fixed =
        List.map
          (fun (u, v, c) -> (u, v, c, Maxflow.add_edge net ~src:u ~dst:v ~cap:c))
          edges
      in
      let built level =
        Array.to_list (Array.map2 (fun v e -> (source, v, level, e)) dsts src) @ fixed
      in
      let valid level value = valid_flow net ~n:(n + 1) ~source ~sink (built level) value in
      let fresh level =
        fst
          (Reference.max_flow ~n:(n + 1)
             ~edges:(Array.to_list (Array.map (fun v -> (source, v, level)) dsts) @ edges)
             ~source ~sink)
      in
      let f0 = Maxflow.max_flow net ~source ~sink in
      let cold = valid hi f0 in
      let drained = Maxflow.drain_even_caps net src lo ~source ~sink in
      let after_drain = valid lo (f0 - drained) in
      let within = Array.for_all (fun e -> Maxflow.flow_on net e <= lo) src in
      let inc = Maxflow.max_flow net ~source ~sink in
      let fv = fresh lo in
      let lowered = valid lo fv in
      Maxflow.set_even_caps net src up;
      let raised = valid up fv in
      let inc_up = Maxflow.max_flow net ~source ~sink in
      let fu = fresh up in
      cold && after_drain && within && lowered && raised && drained >= 0
      && inc >= 0 && f0 - drained + inc = fv && inc_up >= 0
      && fv + inc_up = fu && valid up fu)

let suite =
  [
    Alcotest.test_case "single edge" `Quick test_single_edge;
    Alcotest.test_case "series bottleneck" `Quick test_series_bottleneck;
    Alcotest.test_case "parallel paths" `Quick test_parallel_paths;
    Alcotest.test_case "residual instance" `Quick test_classic_residual_instance;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    Alcotest.test_case "matches brute force" `Quick test_matches_brute_force;
    Alcotest.test_case "min cut certifies" `Quick test_min_cut_certifies;
    Alcotest.test_case "flow conservation" `Quick test_flow_conservation;
    Alcotest.test_case "set_even_caps warm start" `Quick
      test_set_even_caps_warm_start;
    Alcotest.test_case "warm start matches cold" `Quick
      test_warm_start_matches_cold;
    Alcotest.test_case "add_vertex keeps flow" `Quick test_add_vertex;
    Alcotest.test_case "drain_even_caps basic" `Quick test_drain_even_caps_basic;
    Alcotest.test_case "drain_even_caps guards" `Quick
      test_drain_even_caps_guards;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_drain_resume_matches_fresh;
  ]
