(* The Chapter 3 distributed strategy: full service at the theorem
   capacity, replacement via diffusing computations, failure scenarios,
   and the Won sandwich of Theorem 1.4.2. *)

(* Every [Online.run] in this suite is audited: [Audit.run] replays the
   run's events and fails on the first broken protocol rule. *)
module Online = struct
  include Online

  let run = Audit.run
end

let point2 x y = [| x; y |]

let run_recommended ?faults w =
  let cfg = Online.recommended w in
  let cfg = match faults with None -> cfg | Some f -> { cfg with Online.faults = f } in
  Online.run cfg w

let check_success name w o =
  if not (Online.succeeded o) then begin
    let first =
      match o.Online.failures with
      | [] -> "?"
      | f :: _ ->
          Printf.sprintf "job %d at %s: %s" f.Online.job
            (Point.to_string f.Online.position)
            f.Online.reason
    in
    Alcotest.fail
      (Printf.sprintf "%s: %d failures (first: %s)" name
         (List.length o.Online.failures) first)
  end;
  Alcotest.(check int)
    (name ^ ": every job served")
    (Array.length w.Workload.jobs)
    o.Online.served

let test_single_job () =
  let w = Workload.point ~total:1 () in
  let o = run_recommended w in
  check_success "single job" w o;
  Alcotest.(check int) "one vehicle fleet serves it" o.Online.served 1

let test_point_workload_with_replacements () =
  let w = Workload.point ~total:800 () in
  let o = run_recommended w in
  check_success "hot point" w o;
  Alcotest.(check bool) "replacements happened" true (o.Online.replacements > 0);
  Alcotest.(check bool) "computations ran" true (o.Online.computations > 0);
  Alcotest.(check bool) "messages flowed" true (o.Online.messages > 0)

let test_square_workload () =
  let w = Workload.square ~side:4 ~per_point:30 () in
  check_success "square" w (run_recommended w)

let test_line_workload () =
  let w = Workload.line ~len:10 ~per_point:25 in
  check_success "line" w (run_recommended w)

let test_uniform_workload () =
  let rng = Rng.create 2718 in
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 9 9) in
  let w = Workload.uniform ~rng ~box ~jobs:300 in
  check_success "uniform" w (run_recommended w)

let test_zipf_workload () =
  let rng = Rng.create 987 in
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 7 7) in
  let w = Workload.zipf_sites ~rng ~box ~sites:10 ~jobs:400 ~exponent:1.3 in
  check_success "zipf" w (run_recommended w)

let test_energy_never_exceeds_capacity () =
  let w = Workload.point ~total:500 () in
  let cfg = Online.recommended w in
  let o = Online.run cfg w in
  check_success "capacity audit" w o;
  Alcotest.(check bool) "peak use within capacity" true
    (o.Online.max_energy_used <= cfg.Online.capacity +. 1e-9)

let test_message_delay_seed_invariance_of_service () =
  (* Different message schedules must not change what gets served, and
     the schedules must differ: three seeds, three trace digests, or the
     seed no longer reaches the simulator. *)
  let w = Workload.point ~total:300 () in
  let digests =
    List.map
      (fun seed ->
        let o = Online.run (Online.recommended ~seed w) w in
        check_success (Printf.sprintf "seed %d" seed) w o;
        o.Online.trace_digest)
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "one schedule per seed" 3
    (List.length (List.sort_uniq Int.compare digests))

let test_pairs_covered_after_run () =
  (* If no search starved, every pair must end with an active vehicle —
     the Lemma 3.3.1 invariant. *)
  let w = Workload.point ~total:600 () in
  let o = run_recommended w in
  check_success "coverage" w o;
  Alcotest.(check int) "no starved searches at theorem capacity" 0
    o.Online.starved_searches

let test_scenario2_silent_initiator () =
  (* The initial active at the hot point will exhaust and stay silent; the
     monitoring ring must replace it anyway. *)
  let w = Workload.point ~total:600 () in
  let base = Online.recommended w in
  (* Silence every vehicle: all done vehicles rely on their monitors. *)
  let all_ids = List.init (Online.fleet_size base w) (fun i -> i) in
  let cfg = { base with Online.faults = { Online.no_faults with Online.silent_initiators = all_ids } } in
  let o = Online.run cfg w in
  check_success "scenario 2" w o;
  Alcotest.(check bool) "replacements still happen" true (o.Online.replacements > 0)

let test_scenario3_dead_vehicles () =
  (* Kill a couple of active vehicles mid-run; monitors must recover. *)
  let w = Workload.square ~side:4 ~per_point:40 () in
  let base = Online.recommended w in
  let cfg =
    {
      base with
      Online.capacity = base.Online.capacity +. 8.0;
      faults = { Online.no_faults with Online.deaths = [ (10, 0); (30, 5) ] };
    }
  in
  let o = Online.run cfg w in
  check_success "scenario 3" w o

let test_death_before_first_job () =
  let w = Workload.point ~total:50 () in
  let base = Online.recommended w in
  (* Kill the initial active of the origin's pair before any job. *)
  let cfg =
    { base with Online.faults = { Online.no_faults with Online.deaths = [ (0, 0) ] } }
  in
  let o = Online.run cfg w in
  (* Either vehicle 0 was not the responsible active (then nothing
     changes), or the ring replaced it; both ways every job is served. *)
  check_success "death before first job" w o

let test_insufficient_capacity_fails_cleanly () =
  let w = Workload.point ~total:400 () in
  let cfg = Online.config ~capacity:4.5 ~side:4 () in
  let o = Online.run cfg w in
  Alcotest.(check bool) "some jobs fail" true (o.Online.failures <> []);
  Alcotest.(check bool) "no crash, partial service" true
    (o.Online.served > 0 && o.Online.served < 400)

let test_min_feasible_capacity_sandwich () =
  (* ω* <= Won <= measured minimal capacity <= theorem capacity. *)
  let w = Workload.point ~total:300 () in
  let dm = Workload.demand w in
  let star = Oracle.omega_star dm in
  let _, side = Omega.cube_fixpoint_with_side dm in
  let measured = Online.min_feasible_capacity ~side w in
  let bound = (Online.recommended w).Online.capacity in
  Alcotest.(check bool)
    (Printf.sprintf "ω* (%g) <= measured (%g)" star measured)
    true
    (star <= measured +. 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "measured (%g) <= theorem capacity (%g)" measured bound)
    true (measured <= bound +. 1e-9)

let test_capacity_bound_formula () =
  Alcotest.(check (float 1e-12)) "2d" 38.0 (Online.capacity_bound ~dim:2 1.0);
  Alcotest.(check (float 1e-12)) "1d" 13.0 (Online.capacity_bound ~dim:1 1.0);
  Alcotest.(check (float 1e-12)) "3d" 111.0 (Online.capacity_bound ~dim:3 1.0)

let test_mixture_workload () =
  let rng = Rng.create 1123 in
  let w =
    Workload.mixture ~rng ~name:"mixed"
      [
        Workload.line ~len:6 ~per_point:15;
        Workload.translate (Workload.point ~total:120 ()) (point2 3 4);
      ]
  in
  check_success "mixture" w (run_recommended w)

let prop_random_workloads_served =
  QCheck.Test.make ~name:"recommended config serves random workloads" ~count:15
    QCheck.(pair (int_range 1 1000000) (int_range 20 150))
    (fun (seed, jobs) ->
      let rng = Rng.create seed in
      let box = Box.make ~lo:(point2 0 0) ~hi:(point2 6 6) in
      let w = Workload.clustered ~rng ~box ~clusters:2 ~jobs_per_cluster:(jobs / 2) ~spread:2 in
      let o = run_recommended w in
      Online.succeeded o && o.Online.served = Array.length w.Workload.jobs)

let suite =
  [
    Alcotest.test_case "single job" `Quick test_single_job;
    Alcotest.test_case "hot point with replacements" `Quick test_point_workload_with_replacements;
    Alcotest.test_case "square workload" `Quick test_square_workload;
    Alcotest.test_case "line workload" `Quick test_line_workload;
    Alcotest.test_case "uniform workload" `Quick test_uniform_workload;
    Alcotest.test_case "zipf workload" `Quick test_zipf_workload;
    Alcotest.test_case "energy within capacity" `Quick test_energy_never_exceeds_capacity;
    Alcotest.test_case "delay-seed invariance" `Quick test_message_delay_seed_invariance_of_service;
    Alcotest.test_case "pairs covered after run" `Quick test_pairs_covered_after_run;
    Alcotest.test_case "scenario 2: silent initiators" `Quick test_scenario2_silent_initiator;
    Alcotest.test_case "scenario 3: dead vehicles" `Quick test_scenario3_dead_vehicles;
    Alcotest.test_case "death before first job" `Quick test_death_before_first_job;
    Alcotest.test_case "insufficient capacity fails cleanly" `Quick test_insufficient_capacity_fails_cleanly;
    Alcotest.test_case "Won sandwich" `Quick test_min_feasible_capacity_sandwich;
    Alcotest.test_case "capacity bound formula" `Quick test_capacity_bound_formula;
    Alcotest.test_case "mixture workload" `Quick test_mixture_workload;
    QCheck_alcotest.to_alcotest prop_random_workloads_served;
  ]

(* --- appended: higher-dimension runs and scenario 4 (longevity) --- *)

let test_online_1d () =
  let w =
    { Workload.name = "1d-hot"; dim = 1; jobs = Array.init 200 (fun _ -> [| 0 |]) }
  in
  let o = run_recommended w in
  check_success "1-D online" w o

let test_online_3d () =
  let w =
    {
      Workload.name = "3d-burst";
      dim = 3;
      jobs = Array.init 120 (fun i -> if i mod 3 = 0 then [| 0; 0; 0 |] else [| 1; 0; 0 |]);
    }
  in
  let o = run_recommended w in
  check_success "3-D online" w o

let test_scenario4_mild_longevity_survives () =
  (* A third of the fleet breaks at half charge; with doubled capacity the
     ring and replacements absorb it. *)
  let w = Workload.square ~side:4 ~per_point:25 () in
  let base = Online.recommended w in
  let n = Online.fleet_size base w in
  let longevity =
    List.filter (fun (id, _) -> id < n) (List.init 20 (fun i -> (3 * i, 0.5)))
  in
  let cfg =
    {
      base with
      Online.capacity = 2.0 *. base.Online.capacity;
      faults = { Online.no_faults with Online.longevity };
    }
  in
  let o = Online.run cfg w in
  check_success "scenario 4 (mild)" w o

let test_scenario4_mass_breakdown_fails () =
  (* Scenario 4 proper: when a LARGE number of vehicles break, the
     constant-factor guarantee is void (§3.2.5 / Chapter 4) — the run must
     fail gracefully, not silently succeed. *)
  let w = Workload.point ~total:400 () in
  let base = Online.recommended w in
  (* Everyone breaks at 5% of charge: almost no usable energy anywhere. *)
  let longevity = List.init (Online.fleet_size base w) (fun i -> (i, 0.05)) in
  let cfg = { base with Online.faults = { Online.no_faults with Online.longevity } } in
  let o = Online.run cfg w in
  Alcotest.(check bool) "fails as the theory predicts" true
    (not (Online.succeeded o));
  Alcotest.(check bool) "still serves a prefix" true (o.Online.served > 0)

let test_longevity_zero_is_initial_breakdown () =
  (* p = 0 vehicles break on their first expenditure. *)
  let w = Workload.point ~total:60 () in
  let base = Online.recommended w in
  let cfg =
    { base with Online.faults = { Online.no_faults with Online.longevity = [ (0, 0.0) ] } }
  in
  let o = Online.run cfg w in
  (* Vehicle 0 may or may not be the responsible active; either way the
     protocol absorbs a single constant-fraction breakdown (scenario 3). *)
  check_success "single p=0 vehicle" w o

let extra_suite =
  [
    Alcotest.test_case "online 1-D" `Quick test_online_1d;
    Alcotest.test_case "online 3-D" `Quick test_online_3d;
    Alcotest.test_case "scenario 4: mild longevity" `Quick test_scenario4_mild_longevity_survives;
    Alcotest.test_case "scenario 4: mass breakdown fails" `Quick test_scenario4_mass_breakdown_fails;
    Alcotest.test_case "longevity p=0" `Quick test_longevity_zero_is_initial_breakdown;
  ]

let suite = suite @ extra_suite

let test_moving_hotspot () =
  let rng = Rng.create 999 in
  let w = Workload.moving_hotspot ~rng ~start:(point2 5 5) ~steps:40 ~jobs_per_step:8 in
  let o = run_recommended w in
  check_success "moving hotspot" w o

let suite = suite @ [ Alcotest.test_case "moving hotspot" `Quick test_moving_hotspot ]

(* --- appended: observer trace --- *)

let collect_trace w =
  let events = ref [] in
  let o = Online.run ~observer:(fun e -> events := e :: !events) (Online.recommended w) w in
  (o, List.rev !events)

let test_trace_counts_match_outcome () =
  let w = Workload.point ~total:500 () in
  let o, events = collect_trace w in
  let count f = List.length (List.filter f events) in
  Alcotest.(check int) "served events" o.Online.served
    (count (function Online.Job_served _ -> true | _ -> false));
  Alcotest.(check int) "replacement events" o.Online.replacements
    (count (function Online.Replacement _ -> true | _ -> false));
  Alcotest.(check int) "computation events" o.Online.computations
    (count (function Online.Computation_started _ -> true | _ -> false))

let test_trace_causal_order () =
  (* Every replacement of a pair must be preceded by a computation start
     and a candidate-found for that pair. *)
  let w = Workload.point ~total:800 () in
  let _, events = collect_trace w in
  let seen_start = Hashtbl.create 8 and seen_candidate = Hashtbl.create 8 in
  List.iter
    (function
      | Online.Computation_started { pair; _ } -> Hashtbl.replace seen_start pair ()
      | Online.Candidate_found { pair; _ } ->
          Alcotest.(check bool) "candidate after start" true (Hashtbl.mem seen_start pair);
          Hashtbl.replace seen_candidate pair ()
      | Online.Replacement { pair; _ } ->
          Alcotest.(check bool) "replacement after candidate" true
            (Hashtbl.mem seen_candidate pair)
      | _ -> ())
    events

let test_trace_retirement_precedes_computation () =
  let w = Workload.point ~total:600 () in
  let _, events = collect_trace w in
  (* The first computation for a pair comes after some retirement of the
     pair's vehicle (scenario 1: the done vehicle self-initiates). *)
  let retired = Hashtbl.create 8 in
  List.iter
    (function
      | Online.Vehicle_retired { pair; _ } -> Hashtbl.replace retired pair ()
      | Online.Computation_started { pair; _ } ->
          Alcotest.(check bool) "computation follows retirement" true
            (Hashtbl.mem retired pair)
      | _ -> ())
    events

let test_trace_walks_at_most_one () =
  let rng = Rng.create 321 in
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 6 6) in
  let w = Workload.uniform ~rng ~box ~jobs:200 in
  let _, events = collect_trace w in
  List.iter
    (function
      | Online.Job_served { walk; _ } ->
          Alcotest.(check bool) "pair service walks <= 1" true (walk <= 1)
      | _ -> ())
    events

let suite =
  suite
  @ [
      Alcotest.test_case "trace counts match outcome" `Quick test_trace_counts_match_outcome;
      Alcotest.test_case "trace causal order" `Quick test_trace_causal_order;
      Alcotest.test_case "trace retirement first" `Quick test_trace_retirement_precedes_computation;
      Alcotest.test_case "trace walks <= 1" `Quick test_trace_walks_at_most_one;
    ]

(* --- appended: chaos hardening (lossy channels, partitions, livelock) --- *)

let chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 ()

let test_chaos_point_serves_all () =
  (* The acceptance bar of the robustness work: drop 0.2 / dup 0.1 on
     every channel, and the ack/retry + heartbeat machinery still serves
     every job with no starved search. *)
  let w = Workload.point ~total:400 () in
  let base = Online.recommended w in
  let o = Online.run { base with Online.chaos } w in
  check_success "chaos hot point" w o;
  Alcotest.(check bool) "channels actually lossy" true (o.Online.drops > 0);
  Alcotest.(check bool) "duplicates injected" true (o.Online.dups > 0);
  Alcotest.(check bool) "retries happened" true (o.Online.retries_sent > 0);
  Alcotest.(check int) "no livelock with retries on" 0 o.Online.livelocks;
  Alcotest.(check int) "no starved search beyond the fault-free run" 0
    o.Online.starved_searches

let test_chaos_square_serves_all () =
  let w = Workload.square ~side:4 ~per_point:25 () in
  let base = Online.recommended w in
  let o = Online.run { base with Online.chaos } w in
  check_success "chaos square" w o

let test_chaos_with_deaths () =
  (* Lossy channels and mid-run deaths at once; extra capacity absorbs
     the replacements exactly as in the fault-free scenario 3. *)
  let w = Workload.square ~side:4 ~per_point:40 () in
  let base = Online.recommended w in
  let cfg =
    {
      base with
      Online.capacity = base.Online.capacity +. 8.0;
      chaos;
      faults = { Online.no_faults with Online.deaths = [ (10, 0); (30, 5) ] };
    }
  in
  check_success "chaos + deaths" w (Online.run cfg w)

let test_partitioned_link_tolerated () =
  (* Cutting one link makes one neighbor permanently unreachable; retry
     exhaustion accounts it as a negative reply and the search succeeds
     through the rest of the cube. *)
  let w = Workload.point ~total:400 () in
  let base = Online.recommended w in
  let n = Online.fleet_size base w in
  let cfg = { base with Online.partitions = [ (0, min 1 (n - 1)) ] } in
  check_success "partitioned link" w (Online.run cfg w)

let test_retries_disabled_livelock_reported () =
  (* Without the reliable layer, lossy channels strand the diffusing
     computations; the budget must end the run with a livelock report
     instead of an infinite spin, and the run still terminates with
     partial service. *)
  let w = Workload.point ~total:300 () in
  let base = Online.recommended w in
  let cfg =
    {
      base with
      Online.chaos = Des.faults ~drop_p:0.3 ~dup_p:0.1 ();
      retries = false;
      quiesce_budget = 60;
    }
  in
  let o = Online.run cfg w in
  Alcotest.(check bool) "livelock reported" true (o.Online.livelocks > 0);
  Alcotest.(check bool) "prefix still served" true (o.Online.served > 0);
  Alcotest.(check bool) "degraded, not silently fine" true
    (not (Online.succeeded o))

let test_chaos_trace_digest_deterministic () =
  (* Same seed + same fault config ⇒ bit-identical runs. *)
  let w = Workload.point ~total:300 () in
  let base = Online.recommended ~seed:7 w in
  let cfg = { base with Online.chaos } in
  let o1 = Online.run cfg w and o2 = Online.run cfg w in
  Alcotest.(check int) "identical digests" o1.Online.trace_digest
    o2.Online.trace_digest;
  Alcotest.(check int) "identical message counts" o1.Online.messages
    o2.Online.messages;
  Alcotest.(check int) "identical drops" o1.Online.drops o2.Online.drops;
  Alcotest.(check int) "identical retries" o1.Online.retries_sent
    o2.Online.retries_sent;
  let o3 = Online.run { cfg with Online.seed = 8 } w in
  Alcotest.(check bool) "different seed, different digest" true
    (o3.Online.trace_digest <> o1.Online.trace_digest)

let test_fault_plan_validation () =
  let w = Workload.point ~total:50 () in
  let base = Online.recommended w in
  let rejected what cfg =
    match Online.run cfg w with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  rejected "silent initiator out of range"
    { base with Online.faults = { Online.no_faults with Online.silent_initiators = [ 9999 ] } };
  rejected "death id out of range"
    { base with Online.faults = { Online.no_faults with Online.deaths = [ (1, 9999) ] } };
  rejected "negative death id"
    { base with Online.faults = { Online.no_faults with Online.deaths = [ (1, -2) ] } };
  rejected "longevity id out of range"
    { base with Online.faults = { Online.no_faults with Online.longevity = [ (9999, 0.5) ] } };
  rejected "partition endpoint out of range" { base with Online.partitions = [ (0, 9999) ] };
  (* The config builder rejects what it can check without a fleet. *)
  (match
     Online.config ~capacity:10.0 ~side:4
       ~faults:{ Online.no_faults with Online.longevity = [ (0, 1.5) ] }
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "longevity fraction 1.5: expected Invalid_argument");
  (match
     Online.config ~capacity:10.0 ~side:4
       ~faults:{ Online.no_faults with Online.deaths = [ (-1, 0) ] }
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative death index: expected Invalid_argument");
  (match Online.config ~capacity:10.0 ~side:4 ~quiesce_budget:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget: expected Invalid_argument")

let test_fleet_size_matches_run () =
  let w = Workload.square ~side:4 ~per_point:5 () in
  let cfg = Online.recommended w in
  let o = Online.run cfg w in
  Alcotest.(check int) "fleet_size agrees with the run" o.Online.vehicles
    (Online.fleet_size cfg w)

let suite =
  suite
  @ [
      Alcotest.test_case "chaos: hot point serves all" `Quick test_chaos_point_serves_all;
      Alcotest.test_case "chaos: square serves all" `Quick test_chaos_square_serves_all;
      Alcotest.test_case "chaos + deaths" `Quick test_chaos_with_deaths;
      Alcotest.test_case "partitioned link tolerated" `Quick test_partitioned_link_tolerated;
      Alcotest.test_case "retries off: livelock reported" `Quick test_retries_disabled_livelock_reported;
      Alcotest.test_case "chaos digest determinism" `Quick test_chaos_trace_digest_deterministic;
      Alcotest.test_case "fault plan validation" `Quick test_fault_plan_validation;
      Alcotest.test_case "fleet_size matches run" `Quick test_fleet_size_matches_run;
    ]

(* --- Replay determinism at fleet scale (ISSUE 10, satellite 4) ---

   A 10^4-vehicle window under the full chaos matrix at once: lossy and
   duplicating channels with delay spikes, permanent deaths, radio-outage
   crash/restarts, and severed links.  The claims under test are the
   bit-identical replay of [Online.run] and the worker-count invariance
   of [Online.run_fleet] shard digests. *)

let scale_workload () =
  let rng = Rng.create 90210 in
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 99 99) in
  let w = Workload.uniform ~rng ~box ~jobs:1200 in
  (* Pin the corners so the window is exactly 100x100 = 10^4 vehicles. *)
  {
    w with
    Workload.jobs =
      Array.append [| point2 0 0; point2 99 99 |] w.Workload.jobs;
  }

let scale_config ?(seed = 5) () =
  Online.config ~seed ~capacity:12.0 ~side:4
    ~chaos:(Des.faults ~drop_p:0.15 ~dup_p:0.05 ~spike_p:0.02 ~spike_delay:25.0 ())
    ~faults:
      {
        Online.no_faults with
        Online.deaths = [ (40, 17); (400, 7042) ];
        outages = [ (20, 101, 75.0); (300, 5003, 120.0); (700, 9898, 60.0) ];
      }
    ~partitions:[ (0, 1); (5000, 5001) ]
    ()

let test_scale_replay_determinism () =
  let w = scale_workload () in
  let cfg = scale_config () in
  Alcotest.(check int) "fleet is 10^4 vehicles" 10_000 (Online.fleet_size cfg w);
  let a = Online.run cfg w in
  let b = Online.run cfg w in
  Alcotest.(check int) "replay digest identical" a.Online.trace_digest
    b.Online.trace_digest;
  Alcotest.(check int) "replay served identical" a.Online.served b.Online.served;
  Alcotest.(check int) "replay messages identical" a.Online.messages
    b.Online.messages;
  Alcotest.(check bool) "chaos actually dropped messages" true (a.Online.drops > 0);
  Alcotest.(check bool) "chaos actually duplicated messages" true (a.Online.dups > 0);
  let c = Online.run (scale_config ~seed:6 ()) w in
  Alcotest.(check bool) "different seed differs" true
    (a.Online.trace_digest <> c.Online.trace_digest)

let test_fleet_digests_worker_invariant () =
  let w = scale_workload () in
  let cfg = scale_config () in
  let base = Online.run_fleet ~workers:1 ~shards:4 cfg w in
  Alcotest.(check int) "four bands" 4 base.Online.shard_count;
  List.iter
    (fun workers ->
      let f = Online.run_fleet ~workers ~shards:4 cfg w in
      Alcotest.(check (array int))
        (Printf.sprintf "workers=%d shard digests match workers=1" workers)
        base.Online.shard_digests f.Online.shard_digests;
      Alcotest.(check int)
        (Printf.sprintf "workers=%d aggregate digest matches" workers)
        base.Online.aggregate.Online.trace_digest
        f.Online.aggregate.Online.trace_digest;
      Alcotest.(check int)
        (Printf.sprintf "workers=%d served matches" workers)
        base.Online.aggregate.Online.served f.Online.aggregate.Online.served;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "workers=%d footprint matches" workers)
        base.Online.bytes_per_vehicle f.Online.bytes_per_vehicle)
    [ 2; 4 ];
  Alcotest.(check bool) "per-vehicle footprint within budget" true
    (base.Online.bytes_per_vehicle <= 512.0)

(* Each band's simulator publishes its counts and queue-depth gauge to
   the shared registry when a drain ends, so the registry totals cannot
   depend on how the bands are spread over domains. *)
let test_fleet_des_metrics_worker_invariant () =
  let w = scale_workload () in
  let cfg = scale_config () in
  let des_metrics workers =
    Metrics.reset ();
    ignore (Online.run_fleet ~workers ~shards:4 cfg w);
    List.filter_map
      (fun (name, sample) ->
        match sample with
        | Metrics.Count n when String.starts_with ~prefix:"des." name ->
            Some (Printf.sprintf "%s = %d" name n)
        | Metrics.Level { value; peak } when String.equal name "des.queue_depth" ->
            Some (Printf.sprintf "%s = %g (peak %g)" name value peak)
        | _ -> None)
      (Metrics.snapshot ())
  in
  let one = des_metrics 1 in
  Alcotest.(check bool) "messages were counted" true
    (List.exists (String.starts_with ~prefix:"des.messages_sent") one);
  Alcotest.(check (list string)) "des.* at workers=2 match workers=1" one
    (des_metrics 2)

let test_fleet_single_shard_matches_run () =
  let w = scale_workload () in
  let cfg = scale_config () in
  let o = Online.run cfg w in
  let f = Online.run_fleet ~workers:1 ~shards:1 cfg w in
  let a = f.Online.aggregate in
  Alcotest.(check int) "shards=1 digest equals run" o.Online.trace_digest
    a.Online.trace_digest;
  Alcotest.(check int) "shards=1 served equals run" o.Online.served
    a.Online.served;
  Alcotest.(check int) "shards=1 messages equal run" o.Online.messages
    a.Online.messages;
  Alcotest.(check int) "shards=1 replacements equal run" o.Online.replacements
    a.Online.replacements;
  Alcotest.(check int) "shards=1 retries equal run" o.Online.retries_sent
    a.Online.retries_sent

(* A death or an outage after the k-th job, for k past the last job,
   never fires in [run], so it must not fire in [run_fleet] either: the
   fleet runner used to move it to its band's last job (52 messages
   delivered on this 40-job point, against none in [run]). *)
let test_fleet_drops_faults_past_last_job () =
  let w = Workload.point ~total:40 () in
  let cfg =
    {
      (Online.recommended w) with
      Online.faults =
        {
          Online.no_faults with
          Online.deaths = [ (1000, 0) ];
          outages = [ (1000, 1, 5.0) ];
        };
    }
  in
  let o = Online.run cfg w in
  let a = (Online.run_fleet ~workers:1 ~shards:1 cfg w).Online.aggregate in
  Alcotest.(check int) "digest equals run" o.Online.trace_digest a.Online.trace_digest;
  Alcotest.(check int) "messages equal run" o.Online.messages a.Online.messages

let test_outage_restart_recovers () =
  (* Radio silence on a vehicle of a hot-point fleet: the protocol state
     survives the crash, the restart hook re-arms the lost timers, and
     every job is still served. *)
  let w = Workload.point ~total:120 () in
  let cfg = Online.recommended w in
  let cfg =
    {
      cfg with
      Online.faults =
        { Online.no_faults with Online.outages = [ (10, 0, 50.0); (60, 3, 80.0) ] };
    }
  in
  let o = Online.run cfg w in
  check_success "outage restart" w o;
  let o' = Online.run cfg w in
  Alcotest.(check int) "outage replay deterministic" o.Online.trace_digest
    o'.Online.trace_digest

let test_outage_validation () =
  (match
     Online.config ~capacity:10.0 ~side:4
       ~faults:{ Online.no_faults with Online.outages = [ (-1, 0, 5.0) ] }
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative outage index: expected Invalid_argument");
  List.iter
    (fun d ->
      match
        Online.config ~capacity:10.0 ~side:4
          ~faults:{ Online.no_faults with Online.outages = [ (3, 0, d) ] }
          ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "outage delay %h: expected Invalid_argument" d)
    [ 0.0; nan; infinity ];
  let w = Workload.point ~total:10 () in
  let cfg =
    Online.config ~capacity:10.0 ~side:4
      ~faults:{ Online.no_faults with Online.outages = [ (1, 999, 5.0) ] }
      ()
  in
  (match Online.run cfg w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-fleet outage id: expected Invalid_argument");
  (match Online.run_fleet ~shards:0 (Online.config ~capacity:10.0 ~side:4 ()) w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive shards: expected Invalid_argument")

let suite =
  suite
  @ [
      Alcotest.test_case "scale: replay determinism under combined chaos" `Quick
        test_scale_replay_determinism;
      Alcotest.test_case "scale: fleet digests invariant across workers" `Quick
        test_fleet_digests_worker_invariant;
      Alcotest.test_case "scale: fleet des metrics invariant across workers"
        `Quick test_fleet_des_metrics_worker_invariant;
      Alcotest.test_case "scale: single shard fleet equals run" `Quick
        test_fleet_single_shard_matches_run;
      Alcotest.test_case "fleet drops faults past the last job" `Quick
        test_fleet_drops_faults_past_last_job;
      Alcotest.test_case "outage restart recovers" `Quick
        test_outage_restart_recovers;
      Alcotest.test_case "outage validation" `Quick test_outage_validation;
    ]

(* --- Grid protocol pins ---

   The grid protocol's reference behaviour, bit for bit: per run the
   trace digest, every outcome counter and float bit pattern, an FNV of
   the observer's event stream (positions, walks and replacement
   destinations included) and an FNV of the failure list.  A change to
   [Online] that is not meant to change the protocol keeps them all.  The two chaos runs are the anchors of
   [cmvrp simulate -k point --drop-p 0.2 --dup-p 0.1]; the others cover
   silent initiators with deaths, outages, a capacity too tight to serve
   everything, 1-D and 3-D replacements, and the bands of [run_fleet]. *)

let fold_ints = List.fold_left Fnv.add_int
let fold_point h p = Array.fold_left Fnv.add_int (Fnv.add_int h (Array.length p)) p

let fold_event h = function
  | Online.Job_served { job; position; vehicle; walk } ->
      fold_point (fold_ints h [ 0; job; vehicle; walk ]) position
  | Online.Vehicle_retired { vehicle; pair } -> fold_ints h [ 1; vehicle; pair ]
  | Online.Vehicle_died { vehicle } -> fold_ints h [ 2; vehicle ]
  | Online.Computation_started { initiator; pair } ->
      fold_ints h [ 3; initiator; pair ]
  | Online.Candidate_found { initiator; pair } -> fold_ints h [ 4; initiator; pair ]
  | Online.Replacement { vehicle; pair; dest } ->
      fold_point (fold_ints h [ 5; vehicle; pair ]) dest
  | Online.Search_starved { pair } -> fold_ints h [ 6; pair ]
  | Online.Search_abandoned { pair } -> fold_ints h [ 7; pair ]

let fold_failures failures =
  List.fold_left
    (fun h (f : Online.failure) ->
      Fnv.add_string (fold_point (Fnv.add_int h f.Online.job) f.Online.position)
        f.Online.reason)
    Fnv.basis failures

let pin_outcome (o : Online.outcome) =
  Printf.sprintf
    "digest %016x served %d failures %d/%x max %Lx mean %Lx consumers %d msgs %d \
     repl %d comp %d starved %d vehicles %d serviceable %d drops %d dups %d \
     retries %d livelocks %d"
    o.Online.trace_digest o.Online.served
    (List.length o.Online.failures)
    (fold_failures o.Online.failures)
    (Int64.bits_of_float o.Online.max_energy_used)
    (Int64.bits_of_float o.Online.mean_energy_used)
    o.Online.energy_consumers o.Online.messages o.Online.replacements
    o.Online.computations o.Online.starved_searches o.Online.vehicles
    o.Online.vehicles_still_serviceable o.Online.drops o.Online.dups
    o.Online.retries_sent o.Online.livelocks

let pin_run name cfg w =
  let h = ref Fnv.basis and n = ref 0 in
  let o =
    Online.run
      ~observer:(fun e ->
        incr n;
        h := fold_event !h e)
      cfg w
  in
  Printf.sprintf "%s: %s events %d/%x" name (pin_outcome o) !n !h

let pin_lines () =
  let anchor total seed =
    {
      (Online.recommended ~seed (Workload.point ~total ())) with
      Online.chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 ();
    }
  in
  let square = Workload.square ~side:4 ~per_point:40 () in
  let silent_deaths =
    let base = Online.recommended square in
    {
      base with
      Online.capacity = base.Online.capacity +. 8.0;
      faults =
        {
          Online.no_faults with
          Online.silent_initiators = List.init 12 (fun i -> 2 * i);
          deaths = [ (10, 0); (30, 5); (90, 21) ];
        };
    }
  in
  let point120 = Workload.point ~total:120 () in
  let outages =
    {
      (Online.recommended ~seed:4 point120) with
      Online.faults =
        {
          Online.no_faults with
          Online.outages = [ (10, 0, 50.0); (60, 3, 80.0) ];
        };
      chaos = Des.faults ~drop_p:0.1 ~dup_p:0.05 ();
    }
  in
  let point300 = Workload.point ~total:300 () in
  let tight = { (Online.recommended point300) with Online.capacity = 5.0 } in
  let one_d =
    {
      Workload.name = "1d-hot";
      dim = 1;
      jobs = Array.init 200 (fun _ -> [| 0 |]);
    }
  in
  let three_d =
    {
      Workload.name = "3d-burst";
      dim = 3;
      jobs =
        Array.init 120 (fun i ->
            if i mod 3 = 0 then [| 0; 0; 0 |] else [| 1; 0; 0 |]);
    }
  in
  let fleet_w =
    let rng = Rng.create 606 in
    let box = Box.make ~lo:(point2 0 0) ~hi:(point2 23 23) in
    let w = Workload.uniform ~rng ~box ~jobs:150 in
    {
      w with
      Workload.jobs = Array.append [| point2 0 0; point2 23 23 |] w.Workload.jobs;
    }
  in
  let fleet_cfg =
    Online.config ~seed:9 ~capacity:2.5 ~side:4
      ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
      ~faults:
        {
          Online.no_faults with
          Online.deaths = [ (5, 30) ];
          outages = [ (10, 300, 40.0) ];
        }
      ~partitions:[ (0, 1); (100, 101) ]
      ()
  in
  let f = Audit.run_fleet ~shards:3 fleet_cfg fleet_w in
  [
    pin_run "chaos-300-seed1" (anchor 300 1) (Workload.point ~total:300 ());
    pin_run "chaos-400-seed3" (anchor 400 3) (Workload.point ~total:400 ());
    pin_run "silent+deaths" silent_deaths square;
    pin_run "outages" outages point120;
    pin_run "tight" tight point300;
    pin_run "1-D" { (Online.recommended one_d) with Online.capacity = 40.0 } one_d;
    pin_run "3-D"
      { (Online.recommended three_d) with Online.capacity = 24.0 }
      three_d;
    Printf.sprintf "fleet: %s shards %s"
      (pin_outcome f.Online.aggregate)
      (String.concat ","
         (Array.to_list
            (Array.map (Printf.sprintf "%016x") f.Online.shard_digests)));
  ]

let pinned_lines =
  [
    "chaos-300-seed1: "
    ^ "digest 19fd36693bd11e3a served 300 failures "
    ^ "0/bf29ce484222325 max 405d400000000000 mean "
    ^ "4059555555555555 consumers 3 msgs 1206 repl 2 comp 2 "
    ^ "starved 0 vehicles 16 serviceable 14 drops 205 dups 70 "
    ^ "retries 136 livelocks 0 events 308/2865410f0caf27fa";
    "chaos-400-seed3: "
    ^ "digest 005d29ec33032bb4 served 400 failures "
    ^ "0/bf29ce484222325 max 405d400000000000 mean "
    ^ "4059700000000000 consumers 4 msgs 1854 repl 3 comp 3 "
    ^ "starved 0 vehicles 16 serviceable 13 drops 304 dups 109 "
    ^ "retries 198 livelocks 0 events 412/377385119133a89f";
    "silent+deaths: "
    ^ "digest 36484aa90924dd3d served 640 failures "
    ^ "0/bf29ce484222325 max 4054800000000000 mean "
    ^ "4052238e38e38e39 consumers 9 msgs 433 repl 1 comp 1 "
    ^ "starved 0 vehicles 25 serviceable 22 drops 0 dups 0 "
    ^ "retries 0 livelocks 0 events 646/3c35156782a3a06c";
    "outages: "
    ^ "digest 295fbfa991becdca served 120 failures "
    ^ "0/bf29ce484222325 max 4053c00000000000 mean "
    ^ "404e400000000000 consumers 2 msgs 269 repl 1 comp 1 "
    ^ "starved 0 vehicles 9 serviceable 8 drops 22 dups 11 "
    ^ "retries 10 livelocks 0 events 124/32d1df825b97b5c";
    "tight: "
    ^ "digest 17f3609d001f8135 served 8 failures "
    ^ "292/30dc97ed81c062ee max 4014000000000000 mean "
    ^ "4011000000000000 consumers 4 msgs 1197 repl 3 comp 3 "
    ^ "starved 0 vehicles 16 serviceable 12 drops 0 dups 0 "
    ^ "retries 0 livelocks 0 events 20/26869da5cc2c4c05";
    "1-D: "
    ^ "digest 2d53dc679e66c000 served 179 failures "
    ^ "21/58504ba9cc7d743 max 4043800000000000 mean "
    ^ "4043800000000000 consumers 5 msgs 1235 repl 4 comp 7 "
    ^ "starved 3 vehicles 9 serviceable 4 drops 0 dups 0 retries "
    ^ "0 livelocks 0 events 202/11c6d527ad4f77c7";
    "3-D: "
    ^ "digest 1a4cb73812c9b68b served 120 failures "
    ^ "0/bf29ce484222325 max 4037000000000000 mean "
    ^ "4036000000000000 consumers 6 msgs 898 repl 4 comp 4 "
    ^ "starved 0 vehicles 8 serviceable 4 drops 0 dups 0 retries "
    ^ "0 livelocks 0 events 136/11f301b62e99a15f";
    "fleet: "
    ^ "digest 2ab047a11ff8e199 served 130 failures "
    ^ "38/19cb511ceaa2e900 max 4014000000000000 mean "
    ^ "3ff716e4f16e4f17 consumers 246 msgs 57529 repl 130 comp "
    ^ "132 starved 0 vehicles 576 serviceable 329 drops 825 dups "
    ^ "371 retries 804 livelocks 0 shards "
    ^ "3ecb1155e66bc251,21b2e500216693b7,3e5ead4599ae1332";
  ]

let test_grid_protocol_pins () =
  Alcotest.(check (list string))
    "grid protocol pins" pinned_lines (pin_lines ())

(* A run does not depend on its idle vehicles.  The same 25 jobs, one in
   each 4-cube of the [0,20)² corner, are run with one far job that fixes
   an 80² window, then a 200² one, at the same offset in its cube.  An
   idle pair's deadline chain costs no event and no RNG draw, so every
   outcome field that does not count the window's vehicles is equal,
   delivered messages included. *)
let test_idle_vehicles () =
  let corner = List.init 25 (fun k -> point2 ((4 * (k / 5)) + 1) ((4 * (k mod 5)) + 2)) in
  let run ?chaos far =
    let jobs = Array.of_list (corner @ [ point2 far far ]) in
    Online.run
      (Online.config ?chaos ~seed:1 ~capacity:2.5 ~side:4 ())
      { Workload.name = "idle"; dim = 2; jobs }
  in
  let fields (o : Online.outcome) =
    Printf.sprintf
      "served %d failures %d/%x max %h mean %h consumers %d msgs %d repl %d comp %d \
       starved %d unserviceable %d drops %d dups %d retries %d livelocks %d"
      o.Online.served
      (List.length o.Online.failures)
      (fold_failures o.Online.failures)
      o.Online.max_energy_used o.Online.mean_energy_used o.Online.energy_consumers
      o.Online.messages o.Online.replacements o.Online.computations
      o.Online.starved_searches
      (o.Online.vehicles - o.Online.vehicles_still_serviceable)
      o.Online.drops o.Online.dups o.Online.retries_sent o.Online.livelocks
  in
  List.iter
    (fun (name, chaos) ->
      let small = run ?chaos 79 and large = run ?chaos 199 in
      Alcotest.(check int) (name ^ ": 80² window") 6400 small.Online.vehicles;
      Alcotest.(check int) (name ^ ": 200² window") 40_000 large.Online.vehicles;
      Alcotest.(check string) (name ^ ": same outcome") (fields small) (fields large))
    [ ("reliable", None); ("lossy", Some (Des.faults ~drop_p:0.02 ~dup_p:0.01 ())) ]

let suite =
  suite
  @ [
      Alcotest.test_case "grid protocol pins" `Quick test_grid_protocol_pins;
      Alcotest.test_case "a run does not depend on its idle vehicles" `Quick
        test_idle_vehicles;
    ]

(* --- Grid topology: one cube pattern, stamped ---

   [Online.grid_topology] computes one cube's pairs and links and stamps
   them onto every cube of the window.  It must give the record that
   building every cube on its own gives ([Reference.grid_topology]),
   array for array: the CSR fill order is the Query fan-out order and
   the ring order the monitoring order, both part of the trace. *)

let check_same_topology name (a : Online.topology) (b : Online.topology) =
  let same what f = Alcotest.(check (array int)) (name ^ ": " ^ what) (f a) (f b) in
  Alcotest.(check int) (name ^ ": cells") a.Online.cells b.Online.cells;
  same "nbr_off" (fun t -> t.Online.nbr_off);
  same "nbr_ids" (fun t -> t.Online.nbr_ids);
  same "ring_off" (fun t -> t.Online.ring_off);
  same "pair_ring" (fun t -> t.Online.pair_ring);
  same "pair_anchor" (fun t -> t.Online.pair_anchor);
  same "pair_partner" (fun t -> t.Online.pair_partner);
  same "pair_walk" (fun t -> t.Online.pair_walk);
  for c = 0 to a.Online.cells - 1 do
    let c' = ((c * 7) + 3) mod a.Online.cells in
    if not (Point.equal (a.Online.point c) (b.Online.point c)) then
      Alcotest.failf "%s: point of cell %d" name c;
    Alcotest.(check int)
      (Printf.sprintf "%s: dist %d %d" name c c')
      (b.Online.dist c c') (a.Online.dist c c')
  done

let test_grid_topology_matches_reference () =
  let lo = [| -7; 3; -2 |] and tiles = [| 2; 3; 2 |] in
  for dim = 1 to 3 do
    for side = 1 to 5 do
      for comm_radius = 1 to 3 do
        let cfg = Online.config ~comm_radius ~capacity:4.0 ~side () in
        let lo = Array.sub lo 0 dim in
        let tiles = if dim = 1 then [| 3 |] else Array.sub tiles 0 dim in
        let window =
          Box.make ~lo ~hi:(Array.mapi (fun i l -> l + (tiles.(i) * side) - 1) lo)
        in
        check_same_topology
          (Printf.sprintf "dim %d side %d radius %d" dim side comm_radius)
          (Online.grid_topology cfg window)
          (Reference.grid_topology cfg window)
      done
    done
  done;
  (* [run_fleet]'s bands: runs of whole tile columns along axis 0 of a
     tiled window, here 7 columns in 3 bands of 2, 2 and 3. *)
  let cfg = Online.config ~capacity:2.5 ~side:4 () in
  List.iter
    (fun (first, cols) ->
      let band =
        Box.make
          ~lo:(point2 (-5 + (4 * first)) 2)
          ~hi:(point2 (-5 + (4 * (first + cols)) - 1) (2 + (4 * 5) - 1))
      in
      check_same_topology
        (Printf.sprintf "band of columns %d..%d" first (first + cols - 1))
        (Online.grid_topology cfg band)
        (Reference.grid_topology cfg band))
    [ (0, 2); (2, 2); (4, 3) ];
  match Online.grid_topology cfg (Box.make ~lo:(point2 0 0) ~hi:(point2 7 9)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a 8x10 window of 4-cubes: expected Invalid_argument"

(* A fleet call's allocation per delivered message: 16 jobs on a 64²
   window, one per 4×4 cube, plus the two corner pins, in eight bands on
   one worker — fleet-50k's shape at 1/12 of its vehicles.  When every
   call rebuilt each cube's pairs and links through [Box.iter] and
   [Snake.pairing], a call allocated about 91 minor words per delivered
   message; stamping one cube pattern brings it to about 19. *)
let test_fleet_call_allocation () =
  let box_side = 64 and cube_side = 4 in
  let rng = Rng.create (Fnv.of_ints [ 1; 0 ]) in
  let pins = [| point2 0 0; point2 (box_side - 1) (box_side - 1) |] in
  let cube p = (p.(0) / cube_side * (box_side / cube_side)) + (p.(1) / cube_side) in
  let taken = Hashtbl.create 32 in
  Array.iter (fun p -> Hashtbl.replace taken (cube p) ()) pins;
  let rec draw acc left =
    if left = 0 then List.rev acc
    else
      let p = point2 (Rng.int rng box_side) (Rng.int rng box_side) in
      if Hashtbl.mem taken (cube p) then draw acc left
      else begin
        Hashtbl.replace taken (cube p) ();
        draw (p :: acc) (left - 1)
      end
  in
  let w =
    {
      Workload.name = "fleet-64";
      dim = 2;
      jobs = Array.append (Array.of_list (draw [] 16)) pins;
    }
  in
  let cfg =
    Online.config ~seed:1 ~capacity:2.5 ~side:cube_side
      ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
      ~quiesce_budget:10_000_000 ()
  in
  let run () = Online.run_fleet ~workers:1 ~shards:8 cfg w in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let f = run () in
  let words = Gc.minor_words () -. w0 in
  let a = f.Online.aggregate in
  Alcotest.(check int) "every job served" (Array.length w.Workload.jobs) a.Online.served;
  let per_message = words /. float_of_int a.Online.messages in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per delivered message (at most 35)" per_message)
    true (per_message <= 35.0)

let suite =
  suite
  @ [
      Alcotest.test_case "grid topology = reference" `Quick
        test_grid_topology_matches_reference;
      Alcotest.test_case "fleet call allocation" `Quick test_fleet_call_allocation;
    ]
