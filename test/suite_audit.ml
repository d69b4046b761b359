(* The protocol auditor (test/audit.ml) on runs that must pass it, and on
   recorded runs with one seeded fault each, in the event stream or in
   the outcome, which it must reject.
   [Suite_online] audits every [Online.run] it makes; this suite adds the
   chaos anchors, the graph topologies of experiment E17 and fleet calls,
   band by band. *)

let point2 x y = [| x; y |]

let audited name r =
  match Audit.recheck r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* The two anchors of [cmvrp simulate -k point --drop-p 0.2 --dup-p 0.1]. *)
let anchor ~total ~seed =
  let w = Workload.point ~total () in
  ( { (Online.recommended ~seed w) with Online.chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 () },
    w )

let test_chaos_anchors () =
  List.iter
    (fun (total, seed) ->
      let cfg, w = anchor ~total ~seed in
      let r = Audit.record cfg w in
      audited (Printf.sprintf "point %d seed %d" total seed) r;
      Alcotest.(check int) "every job served" total r.Audit.outcome.Online.served)
    [ (300, 1); (400, 3) ]

(* Point runs at heavy loss in which a search's [Move] outlived the
   search: given up as lost, or overtaken by the pair's next search.  A
   [Move] acts only for its pair's live search, so the auditor finds no
   stale relocation in any of them. *)
let test_stale_searches () =
  let rejected =
    List.concat_map
      (fun (total, drop_p, seeds) ->
        List.filter_map
          (fun seed ->
            let w = Workload.point ~total () in
            let chaos = Des.faults ~drop_p ~dup_p:0.2 () in
            let cfg = { (Online.recommended ~seed w) with Online.chaos } in
            match Audit.recheck (Audit.record cfg w) with
            | Ok () -> None
            | Error m -> Some (Printf.sprintf "point %d seed %d drop %g: %s" total seed drop_p m))
          seeds)
      [ (400, 0.4, [ 34; 37; 54 ]); (200, 0.5, [ 10; 30; 32; 36 ]) ]
  in
  Alcotest.(check (list string)) "rejected runs" [] rejected

(* E17's rows: each graph at its measured least capacity plus 2. *)
let test_e17_graphs () =
  List.iter
    (fun (name, inst, jobs) ->
      let capacity = Gonline.min_feasible_capacity inst ~jobs +. 2.0 in
      let o =
        Audit.run_topology
          (Online.config ~capacity ~side:1 ())
          (Gonline.topology inst) ~jobs
      in
      Alcotest.(check int) (name ^ ": every job served") (Array.length jobs) o.Online.served)
    (Suite_gcmvrp.e17_graphs ())

(* A fleet window: [jobs] uniform arrivals in a [box_side]² box plus the
   two corner pins that fix it, as [cmvrp workload -k uniform] writes
   them. *)
let fleet_workload ~box_side ~jobs ~seed =
  let rng = Rng.create seed in
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 (box_side - 1) (box_side - 1)) in
  let w = Workload.uniform ~rng ~box ~jobs in
  {
    w with
    Workload.jobs =
      Array.append w.Workload.jobs [| point2 0 0; point2 (box_side - 1) (box_side - 1) |];
  }

let fleet_config =
  Online.config ~capacity:2.5 ~side:4
    ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
    ~quiesce_budget:10_000_000 ()

(* The 400² window of docs/SCALE.md: 160,000 vehicles in eight bands. *)
let test_fleet_call () =
  let w = fleet_workload ~box_side:400 ~jobs:200 ~seed:0 in
  let f = Audit.run_fleet ~shards:8 fleet_config w in
  Alcotest.(check int) "eight bands" 8 f.Online.shard_count;
  Alcotest.(check int) "160,000 vehicles" 160_000 f.Online.aggregate.Online.vehicles;
  Alcotest.(check string) "the window's aggregate digest" "1312e08cc96696ef"
    (Printf.sprintf "%016x" f.Online.aggregate.Online.trace_digest)

(* Each band's topology is the one its window gives on its own. *)
let test_fleet_band_topologies () =
  let w = fleet_workload ~box_side:28 ~jobs:40 ~seed:5 in
  let bands = Hashtbl.create 8 in
  let f =
    Online.run_fleet ~workers:1 ~shards:3 fleet_config w ~observer:(fun b _ ->
        Hashtbl.replace bands b.Online.band_index b)
  in
  Alcotest.(check int) "three bands" 3 f.Online.shard_count;
  Hashtbl.iter
    (fun k b ->
      Suite_online.check_same_topology
        (Printf.sprintf "band %d" k)
        b.Online.band_topology
        (Reference.grid_topology b.Online.band_config b.Online.band_window))
    bands;
  Alcotest.(check int) "every band observed" 3 (Hashtbl.length bands)

(* --- seeded mutations of a recorded stream --- *)

(* Lossy channels and two deaths, one of them the first pair's anchor, so
   the stream has walks of 1, deaths and replacements after them. *)
let recorded () =
  let w = Workload.square ~side:4 ~per_point:40 () in
  let base = Online.recommended w in
  Audit.record
    {
      base with
      Online.capacity = base.Online.capacity +. 8.0;
      chaos = Des.faults ~drop_p:0.2 ~dup_p:0.1 ();
      faults = { Online.no_faults with Online.deaths = [ (10, 0); (30, 5) ] };
    }
    w

(* Capacity 2.5 on an 8² window: relocations overdraw, and the outcome
   reports each as an "energy went negative" failure. *)
let recorded_overdraws () =
  let lo = point2 0 0 and hi = point2 7 7 in
  let w = Workload.uniform ~rng:(Rng.create 606) ~box:(Box.make ~lo ~hi) ~jobs:40 in
  let w = { w with Workload.jobs = Array.append [| lo; hi |] w.Workload.jobs } in
  Audit.record
    (Online.config ~seed:9 ~capacity:2.5 ~side:4
       ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
       ())
    w

(* Rewrites the first event [f] maps to [Some], or fails if none does. *)
let mutate_first f events =
  let rec go = function
    | [] -> Alcotest.fail "no event to mutate"
    | e :: rest -> ( match f e with Some es -> es @ rest | None -> e :: go rest)
  in
  go events

let events f (r : Audit.recorded) = { r with Audit.events = f r.Audit.events }
let outcome f (r : Audit.recorded) = { r with Audit.outcome = f r.Audit.outcome }

let rejects ?(recorded = recorded) what ~because mutation =
  let r = recorded () in
  audited "the unmutated run" r;
  match Audit.recheck (mutation r) with
  | Ok () -> Alcotest.failf "%s: accepted" what
  | Error m ->
      if not (Suite_race.contains m because) then
        Alcotest.failf "%s: rejected for %S, not %S" what m because

let test_rejects_job_served_twice () =
  rejects "a job served twice" ~because:"served twice"
    (events (mutate_first (function Online.Job_served _ as e -> Some [ e; e ] | _ -> None)))

let test_rejects_dropped_job () =
  rejects "a served job dropped" ~because:"neither served nor failed"
    (events (mutate_first (function Online.Job_served _ -> Some [] | _ -> None)))

let test_rejects_misreported_walk () =
  rejects "a walk of 1 reported as 0" ~because:"walk reported 0, replayed 1"
    (events
       (mutate_first (function
         | Online.Job_served ({ walk = 1; _ } as j) ->
             Some [ Online.Job_served { j with walk = 0 } ]
         | _ -> None)))

(* The run forgets to charge one unit-cost job to its busiest vehicle:
   the outcome's peak and mean fall, while the replay charges every
   served job and relocation. *)
let test_rejects_removed_charge () =
  rejects "an energy charge removed" ~because:"max_energy_used: replayed"
    (outcome (fun o ->
         {
           o with
           Online.max_energy_used = o.Online.max_energy_used -. 1.0;
           mean_energy_used =
             o.Online.mean_energy_used -. (1.0 /. float_of_int o.Online.energy_consumers);
         }))

let test_rejects_miscounted_consumers () =
  rejects "an energy consumer miscounted" ~because:"energy consumers: replayed"
    (outcome (fun o -> { o with Online.energy_consumers = o.Online.energy_consumers + 1 }))

let test_rejects_unreported_overdraw () =
  rejects ~recorded:recorded_overdraws "an overdraw left unreported"
    ~because:"that the outcome does not report"
    (outcome (fun o ->
         let rec drop_first = function
           | [] -> Alcotest.fail "the run reports no overdraw"
           | (f : Online.failure) :: rest ->
               if String.equal f.Online.reason "energy went negative" then rest
               else f :: drop_first rest
         in
         (* the last one, so the reported ones before it still match *)
         { o with Online.failures = List.rev (drop_first (List.rev o.Online.failures)) }))

let test_rejects_dead_replacement () =
  rejects "a replacement by a dead vehicle" ~because:"is dead"
    (events (fun events ->
         let dead = ref None in
         mutate_first
           (function
             | Online.Vehicle_died { vehicle } ->
                 if Option.is_none !dead then dead := Some vehicle;
                 None
             | Online.Replacement r -> (
                 match !dead with
                 | Some d -> Some [ Online.Replacement { r with vehicle = d } ]
                 | None -> None)
             | _ -> None)
           events))

let suite =
  [
    Alcotest.test_case "chaos anchors" `Quick test_chaos_anchors;
    Alcotest.test_case "stale searches" `Quick test_stale_searches;
    Alcotest.test_case "E17 graph topologies" `Quick test_e17_graphs;
    Alcotest.test_case "400² fleet call, band by band" `Quick test_fleet_call;
    Alcotest.test_case "fleet band topologies = reference" `Quick
      test_fleet_band_topologies;
    Alcotest.test_case "rejects a job served twice" `Quick test_rejects_job_served_twice;
    Alcotest.test_case "rejects a served job dropped" `Quick test_rejects_dropped_job;
    Alcotest.test_case "rejects a misreported walk" `Quick test_rejects_misreported_walk;
    Alcotest.test_case "rejects an energy charge removed" `Quick
      test_rejects_removed_charge;
    Alcotest.test_case "rejects a miscounted energy consumer" `Quick
      test_rejects_miscounted_consumers;
    Alcotest.test_case "rejects an unreported overdraw" `Quick
      test_rejects_unreported_overdraw;
    Alcotest.test_case "rejects a replacement by a dead vehicle" `Quick
      test_rejects_dead_replacement;
  ]
