(* Transportation feasibility and the exact dual identity of Lemma 2.2.2:
   min uniform supply = max_J D(J)/|N(J)|. *)

let simple_instance () =
  (* Two suppliers; supplier 0 reaches both demands, supplier 1 only the
     second.  Demands 3 and 5. *)
  let t = Transport.create ~n_suppliers:2 ~n_demands:2 in
  Transport.set_demand t 0 3;
  Transport.set_demand t 1 5;
  Transport.add_link t ~supplier:0 ~demand:0;
  Transport.add_link t ~supplier:0 ~demand:1;
  Transport.add_link t ~supplier:1 ~demand:1;
  t

let test_max_served () =
  let t = simple_instance () in
  Alcotest.(check int) "unlimited supply serves all" 8
    (Transport.max_served t ~supply:(fun _ -> 100));
  Alcotest.(check int) "tight supply" 6 (Transport.max_served t ~supply:(fun _ -> 3));
  Alcotest.(check int) "no supply" 0 (Transport.max_served t ~supply:(fun _ -> 0))

let test_feasible () =
  let t = simple_instance () in
  let feasible s = Transport.max_served t ~supply:(fun _ -> s) = Transport.total_demand t in
  Alcotest.(check bool) "feasible at 4" true (feasible 4);
  Alcotest.(check bool) "infeasible at 3" false (feasible 3)

let test_min_uniform_supply_exact () =
  let t = simple_instance () in
  (* Optimal ω: subset {d0} needs 3/1, {d1} needs 5/2, {d0,d1} needs 8/2 = 4. *)
  match Transport.min_uniform_supply t with
  | None -> Alcotest.fail "feasible instance"
  | Some v -> Alcotest.(check (float 1e-9)) "ω = 4" 4.0 v

let test_min_uniform_supply_fractional () =
  (* One supplier linked to both demands: ω = (2+3)/1 = 5.
     Two suppliers sharing: build d=1 with 3 suppliers => ω = 1/3. *)
  let t = Transport.create ~n_suppliers:3 ~n_demands:1 in
  Transport.set_demand t 0 1;
  for i = 0 to 2 do
    Transport.add_link t ~supplier:i ~demand:0
  done;
  match Transport.min_uniform_supply t with
  | None -> Alcotest.fail "feasible instance"
  | Some v -> Alcotest.(check (float 1e-9)) "ω = 1/3" (1.0 /. 3.0) v

let test_min_uniform_supply_off_grid () =
  (* One unit shared by 17 suppliers: the optimum 1/17 is not a multiple
     of 1/720720, so the answer is the grid level just above it. *)
  let t = Transport.create ~n_suppliers:17 ~n_demands:1 in
  Transport.set_demand t 0 1;
  for i = 0 to 16 do
    Transport.add_link t ~supplier:i ~demand:0
  done;
  match Transport.min_uniform_supply t with
  | None -> Alcotest.fail "feasible instance"
  | Some v ->
      Alcotest.(check int64) "ω = 42396/720720, not 1/17"
        (Int64.bits_of_float (42396.0 /. 720720.0))
        (Int64.bits_of_float v)

let test_min_uniform_supply_none () =
  let t = Transport.create ~n_suppliers:1 ~n_demands:2 in
  Transport.set_demand t 0 1;
  Transport.set_demand t 1 1;
  Transport.add_link t ~supplier:0 ~demand:0;
  Alcotest.(check bool) "unlinked demand" true
    (Transport.min_uniform_supply t = None)

let test_min_uniform_supply_zero_demand () =
  let t = Transport.create ~n_suppliers:2 ~n_demands:2 in
  match Transport.min_uniform_supply t with
  | Some v -> Alcotest.(check (float 0.0)) "zero" 0.0 v
  | None -> Alcotest.fail "zero demand is trivially feasible"

let test_dual_value_exhaustive_known () =
  let t = simple_instance () in
  Alcotest.(check (float 1e-9)) "dual = 4" 4.0 (Reference.transport_dual t)

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

let test_primal_equals_dual_random () =
  (* LP duality (Lemma 2.2.2) checked exhaustively on random tiny
     instances: at most 5 suppliers, so every dual denominator divides
     the LP grid. *)
  let rng = Rng.create 31337 in
  let checked = ref 0 in
  while !checked < 100 do
    let t = random_instance rng in
    let dual = Reference.transport_dual t in
    if dual <> infinity then begin
      incr checked;
      match Transport.min_uniform_supply t with
      | None -> Alcotest.fail "dual finite but primal infeasible"
      | Some primal ->
          Alcotest.(check (float 1e-9)) "primal = dual" dual primal
    end
    else
      Alcotest.(check bool) "dual infinite iff primal infeasible" true
        (Transport.min_uniform_supply t = None)
  done

let test_add_supplier_and_links () =
  let t = Transport.create ~n_suppliers:1 ~n_demands:2 in
  Alcotest.(check int) "initial suppliers" 1 (Transport.n_suppliers t);
  Alcotest.(check int) "first grown index" 1 (Transport.add_supplier t);
  Alcotest.(check int) "second grown index" 2 (Transport.add_supplier t);
  Alcotest.(check int) "grown count" 3 (Transport.n_suppliers t);
  Alcotest.(check int) "no links yet" 0 (Transport.n_links t);
  Transport.add_link t ~supplier:2 ~demand:1;
  Transport.add_link t ~supplier:0 ~demand:0;
  Transport.add_link t ~supplier:1 ~demand:1;
  Alcotest.(check int) "three links" 3 (Transport.n_links t);
  let seen = ref [] in
  Transport.iter_links t (fun ~supplier ~demand ->
      seen := (supplier, demand) :: !seen);
  Alcotest.(check (list (pair int int)))
    "insertion order"
    [ (2, 1); (0, 0); (1, 1) ]
    (List.rev !seen);
  (* Grown suppliers behave like constructor-declared ones. *)
  Transport.set_demand t 0 2;
  Transport.set_demand t 1 4;
  Alcotest.(check int) "served via grown suppliers" 6
    (Transport.max_served t ~supply:(fun _ -> 2))

(* The LP grid of [min_uniform_supply]: answers are multiples of 1/grid. *)
let grid = 720720

(* A naive reference for [min_uniform_supply], built from the public API:
   copy the instance with demands multiplied by the grid, then bisect the
   smallest integer uniform supply that is feasible.  This is exactly the
   search the warm-started Newton iteration replaced, so the two must
   agree bit for bit. *)
let reference_min_uniform_supply t =
  let s = Transport.n_suppliers t and d = Transport.n_demands t in
  let c = Transport.create ~n_suppliers:s ~n_demands:d in
  let linked = Array.make (max d 1) false in
  for j = 0 to d - 1 do
    Transport.set_demand c j (Transport.demand t j * grid)
  done;
  Transport.iter_links t (fun ~supplier ~demand ->
      Transport.add_link c ~supplier ~demand;
      linked.(demand) <- true);
  let unlinked = ref false in
  for j = 0 to d - 1 do
    if Transport.demand t j > 0 && not linked.(j) then unlinked := true
  done;
  if !unlinked then None
  else begin
    let feasible s = Transport.max_served c ~supply:(fun _ -> s) = Transport.total_demand c in
    let lo = ref 0 and hi = ref (max 1 (Transport.total_demand c)) in
    while not (feasible !hi) do
      hi := !hi * 2
    done;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid
      else lo := mid + 1
    done;
    Some (float_of_int !lo /. float_of_int grid)
  end

let prop_newton_matches_reference_bisection =
  QCheck.Test.make
    ~name:"min_uniform_supply = reference bisection (random instances)"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let t = random_instance rng in
      match (Transport.min_uniform_supply t, reference_min_uniform_supply t) with
      | None, None -> true
      | Some a, Some b -> a = b
      | Some _, None | None, Some _ -> false)

let copy_instance t =
  let c =
    Transport.create ~n_suppliers:(Transport.n_suppliers t)
      ~n_demands:(Transport.n_demands t)
  in
  for j = 0 to Transport.n_demands t - 1 do
    Transport.set_demand c j (Transport.demand t j)
  done;
  Transport.iter_links t (fun ~supplier ~demand ->
      Transport.add_link c ~supplier ~demand);
  c

(* [D(J)/|N(J)|] for a set of demand sites. *)
let ratio t js =
  let linked = Hashtbl.create 16 in
  Transport.iter_links t (fun ~supplier ~demand ->
      if List.mem demand js then Hashtbl.replace linked supplier ());
  let d = List.fold_left (fun acc j -> acc + Transport.demand t j) 0 js in
  float_of_int d /. float_of_int (Hashtbl.length linked)

(* Warm re-solves on one cached arena through every delta a session or
   the radius scan makes — demand raises, lowerings, drops to 0 and
   revivals, new demand sites, suppliers and links — must answer exactly
   what a cold solve of a fresh copy answers.  The warm start (last
   probed cut, retained flow and level) may only move where the sweep
   begins, never where it ends.  The binding set read off the warm
   arena may depend on that start, but it must be tight: on up to 12
   sites, its ratio is exactly the exhaustive dual. *)
let prop_warm_deltas_match_cold =
  QCheck.Test.make ~name:"warm re-solves under random deltas = cold solve"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let t = random_instance rng in
      (* link every demand so most queries reach the parametric sweep *)
      for j = 0 to Transport.n_demands t - 1 do
        Transport.add_link t
          ~supplier:(Rng.int rng (Transport.n_suppliers t))
          ~demand:j
      done;
      let ops = 50 + Rng.int rng 51 in
      for step = 1 to ops do
        let s = Transport.n_suppliers t and d = Transport.n_demands t in
        let j = Rng.int rng d in
        let v = Transport.demand t j in
        match Rng.int rng 10 with
        | 0 -> Transport.set_demand t j (v + 1 + Rng.int rng 3)
        | 1 -> Transport.set_demand t j (max 0 (v - 1 - Rng.int rng 2))
        | 2 -> Transport.set_demand t j 0
        | 3 -> (
            (* revive the first retired site at or after [j] *)
            let rec retired k =
              if k = d then None
              else if Transport.demand t ((j + k) mod d) = 0 then
                Some ((j + k) mod d)
              else retired (k + 1)
            in
            match retired 0 with
            | Some r -> Transport.set_demand t r (1 + Rng.int rng 4)
            | None -> ())
        | 4 ->
            let j' = Transport.add_demand t in
            Transport.add_link t ~supplier:(Rng.int rng s) ~demand:j';
            Transport.set_demand t j' (Rng.int rng 5)
        | 5 ->
            let i = Transport.add_supplier t in
            for k = 0 to d - 1 do
              if Rng.int rng 3 = 0 then
                Transport.add_link t ~supplier:i ~demand:k
            done
        | 6 -> Transport.add_link t ~supplier:(Rng.int rng s) ~demand:j
        | _ -> (
            let warm = Transport.min_uniform_supply t in
            let cold = Transport.min_uniform_supply (copy_instance t) in
            match (warm, cold) with
            | Some a, Some b when Float.equal a b ->
                if a > 0.0 && d <= 12 then begin
                  let js = Transport.binding_demands t in
                  let dual = Reference.transport_dual t in
                  if js = [] || not (Float.equal (ratio t js) dual) then
                    QCheck.Test.fail_reportf
                      "seed %d, op %d: binding set of %d sites, ratio %.17g \
                       <> dual %.17g"
                      seed step (List.length js) (ratio t js) dual
                end
            | None, None -> ()
            | _ ->
                let show = function
                  | Some v -> Printf.sprintf "%.17g" v
                  | None -> "None"
                in
                QCheck.Test.fail_reportf "seed %d, op %d: warm %s <> cold %s"
                  seed step (show warm) (show cold))
      done;
      true)

let test_empty_fast_path () =
  (* Zero total demand short-circuits before any arena is built: the
     answer is [Some 0.] and no flow runs. *)
  let runs = Metrics.counter "maxflow.runs" in
  let check_instant t =
    let before = Metrics.count runs in
    (match Transport.min_uniform_supply t with
    | Some 0.0 -> ()
    | _ -> Alcotest.fail "zero-demand instance must answer Some 0.");
    Alcotest.(check int) "no flow run" before (Metrics.count runs)
  in
  check_instant (Transport.create ~n_suppliers:0 ~n_demands:0);
  let t = Transport.create ~n_suppliers:1 ~n_demands:2 in
  Transport.add_link t ~supplier:0 ~demand:0;
  check_instant t

let test_cached_lookup_counters () =
  (* The first query pays one feasibility check; repeats are pure
     lookups; changing a demand invalidates the cache. *)
  let fc = Metrics.counter "transport.feasibility_checks" in
  let bl = Metrics.counter "transport.breakpoint_lookups" in
  let t = simple_instance () in
  let fc0 = Metrics.count fc and bl0 = Metrics.count bl in
  let a = Transport.min_uniform_supply t in
  let b = Transport.min_uniform_supply t in
  Alcotest.(check (option (float 1e-9))) "first answer" (Some 4.0) a;
  Alcotest.(check (option (float 1e-9))) "cached answer" (Some 4.0) b;
  Alcotest.(check int) "one real solve" 1 (Metrics.count fc - fc0);
  Alcotest.(check int) "one lookup" 1 (Metrics.count bl - bl0);
  Transport.set_demand t 0 4;
  (match Transport.min_uniform_supply t with
  | Some v -> Alcotest.(check (float 1e-9)) "updated answer" 4.5 v
  | None -> Alcotest.fail "still feasible");
  Alcotest.(check int) "demand change forces a re-solve" 2
    (Metrics.count fc - fc0)

let test_extension_matches_fresh () =
  (* Growing an already-queried instance (the oracle's radius scan) and
     re-querying must match a cold solve on a fresh copy. *)
  let rng = Rng.create 99 in
  for _ = 1 to 30 do
    let t = random_instance rng in
    ignore (Transport.min_uniform_supply t);
    let i = Transport.add_supplier t in
    let linked_any = ref false in
    for j = 0 to Transport.n_demands t - 1 do
      if Rng.bool rng then begin
        Transport.add_link t ~supplier:i ~demand:j;
        linked_any := true
      end
    done;
    if not !linked_any && Transport.n_demands t > 0 then
      Transport.add_link t ~supplier:i ~demand:0;
    let warm = Transport.min_uniform_supply t in
    let cold = Transport.min_uniform_supply (copy_instance t) in
    Alcotest.(check (option (float 1e-9))) "warm extension = cold solve" cold
      warm
  done

let test_max_served_monotone_in_supply () =
  let rng = Rng.create 4242 in
  for _ = 1 to 50 do
    let t = random_instance rng in
    let low = Transport.max_served t ~supply:(fun _ -> 2) in
    let high = Transport.max_served t ~supply:(fun _ -> 5) in
    Alcotest.(check bool) "monotone" true (low <= high);
    Alcotest.(check bool) "bounded by demand" true (high <= Transport.total_demand t)
  done

let suite =
  [
    Alcotest.test_case "max served" `Quick test_max_served;
    Alcotest.test_case "feasibility" `Quick test_feasible;
    Alcotest.test_case "min uniform supply exact" `Quick test_min_uniform_supply_exact;
    Alcotest.test_case "min uniform supply fractional" `Quick test_min_uniform_supply_fractional;
    Alcotest.test_case "min uniform supply off the grid" `Quick
      test_min_uniform_supply_off_grid;
    Alcotest.test_case "unlinked demand gives None" `Quick test_min_uniform_supply_none;
    Alcotest.test_case "zero demand" `Quick test_min_uniform_supply_zero_demand;
    Alcotest.test_case "dual exhaustive known" `Quick test_dual_value_exhaustive_known;
    Alcotest.test_case "primal = dual (Lemma 2.2.2)" `Quick test_primal_equals_dual_random;
    Alcotest.test_case "served monotone in supply" `Quick test_max_served_monotone_in_supply;
    Alcotest.test_case "add_supplier and link iteration" `Quick
      test_add_supplier_and_links;
    QCheck_alcotest.to_alcotest prop_newton_matches_reference_bisection;
    Alcotest.test_case "zero demand fast path" `Quick test_empty_fast_path;
    Alcotest.test_case "cached lookup counters" `Quick
      test_cached_lookup_counters;
    Alcotest.test_case "warm extension matches fresh" `Quick
      test_extension_matches_fresh;
    QCheck_alcotest.to_alcotest prop_warm_deltas_match_cold;
  ]
