(* Command-line interface to the CMVRP library.

   Subcommands:
     workload   — generate an arrival sequence and print it (one "x y" pair
                  per line, arrival order)
     solve      — offline analysis of a workload: bounds, plan, Algorithm 1
     simulate   — run the distributed online strategy and report the audit
     fleet      — run the strategy sharded across a fleet-scale window
                  (band decomposition, Pool workers, digest --check)
     bench-diff — compare two BENCH_<rev>.json reports and fail on
                  regression (the check CI runs; see docs/OBSERVABILITY.md)

   Workloads come either from a generator family (--kind and its
   parameters) or from a file of "x y" lines (--input). *)

open Cmdliner

(* --- workload specification shared by the subcommands --- *)

type spec = {
  kind : string;
  side : int;
  len : int;
  per_point : int;
  total : int;
  jobs : int;
  box_side : int;
  clusters : int;
  spread : int;
  sites : int;
  exponent : float;
  seed : int;
  input : string option;
}

let spec_term =
  let kind =
    let doc =
      "Workload family: square | line | point | uniform | clustered | zipf."
    in
    Arg.(value & opt string "uniform" & info [ "kind"; "k" ] ~doc)
  in
  let side = Arg.(value & opt int 4 & info [ "side" ] ~doc:"Square side (kind=square).") in
  let len = Arg.(value & opt int 16 & info [ "len" ] ~doc:"Line length (kind=line).") in
  let per_point =
    Arg.(value & opt int 10 & info [ "per-point" ] ~doc:"Demand per point (square/line).")
  in
  let total =
    Arg.(value & opt int 100 & info [ "total" ] ~doc:"Total demand (kind=point).")
  in
  let jobs =
    Arg.(value & opt int 200 & info [ "jobs" ] ~doc:"Job count (uniform/zipf).")
  in
  let box_side =
    Arg.(value & opt int 10 & info [ "box-side" ] ~doc:"Random-area side length.")
  in
  let clusters = Arg.(value & opt int 3 & info [ "clusters" ] ~doc:"Cluster count.") in
  let spread = Arg.(value & opt int 2 & info [ "spread" ] ~doc:"Cluster spread.") in
  let sites = Arg.(value & opt int 10 & info [ "sites" ] ~doc:"Zipf site count.") in
  let exponent =
    Arg.(value & opt float 1.3 & info [ "exponent" ] ~doc:"Zipf exponent.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Generator seed.") in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "input"; "i" ] ~doc:"Read jobs from a file of \"x y\" lines instead.")
  in
  let make kind side len per_point total jobs box_side clusters spread sites
      exponent seed input =
    {
      kind;
      side;
      len;
      per_point;
      total;
      jobs;
      box_side;
      clusters;
      spread;
      sites;
      exponent;
      seed;
      input;
    }
  in
  Term.(
    const make $ kind $ side $ len $ per_point $ total $ jobs $ box_side
    $ clusters $ spread $ sites $ exponent $ seed $ input)

let load_jobs_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Workload_io.of_channel ~name:(Printf.sprintf "file(%s)" path) ic)

(* A number too large for native ints (a coordinate whose bounding box's
   volume overflows, say) is bad input, not an internal error: report it
   and exit 2, as the subcommands do for other bad input. *)
let exit_on_overflow f =
  try f ()
  with Energy.Overflow m ->
    Printf.eprintf "cmvrp: %s\n" m;
    exit 2

let realize spec =
  match spec.input with
  | Some path -> load_jobs_file path
  | None -> begin
      let rng = Rng.create spec.seed in
      let box =
        Box.make ~lo:[| 0; 0 |] ~hi:[| spec.box_side - 1; spec.box_side - 1 |]
      in
      match spec.kind with
      | "square" -> Workload.square ~side:spec.side ~per_point:spec.per_point ()
      | "line" -> Workload.line ~len:spec.len ~per_point:spec.per_point
      | "point" -> Workload.point ~total:spec.total ()
      | "uniform" -> Workload.uniform ~rng ~box ~jobs:spec.jobs
      | "clustered" ->
          Workload.clustered ~rng ~box ~clusters:spec.clusters
            ~jobs_per_cluster:(spec.jobs / max 1 spec.clusters)
            ~spread:spec.spread
      | "zipf" ->
          Workload.zipf_sites ~rng ~box ~sites:spec.sites ~jobs:spec.jobs
            ~exponent:spec.exponent
      | other -> failwith (Printf.sprintf "unknown workload kind %S" other)
    end

(* --- workload subcommand --- *)

let workload_cmd =
  let heat =
    Arg.(
      value & flag
      & info [ "heatmap" ] ~doc:"Print an ASCII demand heatmap instead of jobs.")
  in
  let run spec heat =
    exit_on_overflow @@ fun () ->
    let w = realize spec in
    if heat then (
      match Workload_io.heatmap w with
      | art -> print_string art
      | exception Invalid_argument m ->
          Printf.eprintf "cmvrp: %s\n" m;
          exit 2)
    else Workload_io.to_channel stdout w
  in
  let doc = "Generate an arrival sequence and print it." in
  Cmd.v (Cmd.info "workload" ~doc) Term.(const run $ spec_term $ heat)

(* --- solve subcommand --- *)

let solve_cmd =
  let run spec =
    exit_on_overflow @@ fun () ->
    let w = realize spec in
    let dm = Workload.demand w in
    Printf.printf "workload        : %s\n" w.Workload.name;
    Printf.printf "jobs / sites    : %d / %d\n" (Demand_map.total dm)
      (Demand_map.support_size dm);
    if Demand_map.total dm = 0 then print_endline "empty demand; Woff = 0"
    else begin
      let star = Oracle.omega_star dm in
      let omega_c, side = Omega.cube_fixpoint_with_side dm in
      Printf.printf "omega* (LP 2.8) : %.4f   <- lower bound on Woff\n" star;
      (match Oracle.witness dm with
      | Some (points, w) when List.length points <= 12 ->
          Printf.printf "tight set T     : { %s } with omega_T = %.4f\n"
            (String.concat ", " (List.map Point.to_string points))
            w
      | Some (points, w) ->
          Printf.printf "tight set T     : %d sites, omega_T = %.4f\n"
            (List.length points) w
      | None -> ());
      Printf.printf "omega_c / side  : %.4f / %d\n" omega_c side;
      let plan = Planner.plan dm in
      (match Planner.validate plan dm with
      | Ok () -> ()
      | Error m -> failwith ("internal: plan invalid: " ^ m));
      Printf.printf "planner Woff    : %d   <- constructive upper bound\n"
        (Planner.max_energy plan);
      Printf.printf "theorem cap     : %.2f = (2*3^l + l) * omega_c + 2\n"
        (Planner.theorem_bound ~dim:2 omega_c +. 2.0);
      (* Algorithm 1 needs a power-of-two window anchored at the origin. *)
      match Demand_map.bounding_box dm with
      | None -> ()
      | Some bbox ->
          let extent =
            max
              (abs bbox.Box.lo.(0) + abs bbox.Box.hi.(0) + 1)
              (abs bbox.Box.lo.(1) + abs bbox.Box.hi.(1) + 1)
          in
          let n = ref 1 in
          while !n < extent do
            n := 2 * !n
          done;
          if bbox.Box.lo.(0) >= 0 && bbox.Box.lo.(1) >= 0 then begin
            let r = Alg1.run ~dim:2 ~n:!n dm in
            Printf.printf "Algorithm 1     : %.2f (grid n=%d, %d cell ops)\n"
              r.Alg1.value !n r.Alg1.cell_ops
          end
    end
  in
  let doc = "Offline analysis: bounds, constructive plan, Algorithm 1." in
  Cmd.v (Cmd.info "solve" ~doc) Term.(const run $ spec_term)

(* --- simulate subcommand --- *)

let simulate_cmd =
  let capacity =
    Arg.(
      value
      & opt (some float) None
      & info [ "capacity"; "W" ]
          ~doc:"Per-vehicle energy (defaults to the Lemma 3.3.1 capacity).")
  in
  let cube_side =
    Arg.(
      value
      & opt (some int) None
      & info [ "cube-side" ] ~doc:"Partition cube side (defaults to ceil(omega_c)).")
  in
  let kills =
    Arg.(
      value
      & opt (list (pair ~sep:':' int int)) []
      & info [ "kill" ]
          ~doc:"Failure injection: comma-separated job:vehicle pairs (scenario 3).")
  in
  let silent =
    Arg.(
      value
      & opt (list int) []
      & info [ "silent" ]
          ~doc:"Vehicle ids that never announce exhaustion (scenario 2).")
  in
  let find_min =
    Arg.(
      value & flag
      & info [ "find-min" ]
          ~doc:"Binary-search the smallest workable capacity instead of one run.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print every protocol event (retirements, \
                               diffusing computations, replacements).")
  in
  let drop_p =
    Arg.(
      value & opt float 0.0
      & info [ "drop-p" ]
          ~doc:"Probability that a channel silently drops each message.")
  in
  let dup_p =
    Arg.(
      value & opt float 0.0
      & info [ "dup-p" ]
          ~doc:"Probability that a channel delivers each message twice.")
  in
  let partition =
    Arg.(
      value
      & opt (list (pair ~sep:':' int int)) []
      & info [ "partition" ]
          ~doc:"Vehicle pairs a:b whose link is cut for the whole run.")
  in
  let no_retries =
    Arg.(
      value & flag
      & info [ "no-retries" ]
          ~doc:
            "Disable the ack/retry reliable-delivery layer.  Under a lossy \
             channel this is how to watch the livelock guard fire.")
  in
  let budget =
    Arg.(
      value & opt int 100_000
      & info [ "budget" ]
          ~doc:"Events dispatched per network drain before declaring a livelock.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit 1 unless every job was served (for CI smoke jobs).")
  in
  let run spec capacity cube_side kills silent find_min trace drop_p dup_p
      partition no_retries budget check =
    exit_on_overflow @@ fun () ->
    let w = realize spec in
    let recommended = Online.recommended ~seed:spec.seed w in
    let cfg =
      try
        Online.config ~comm_radius:recommended.Online.comm_radius
          ~seed:spec.seed
          ~faults:
            { Online.no_faults with Online.silent_initiators = silent; deaths = kills }
          ~chaos:(Des.faults ~drop_p ~dup_p ())
          ~partitions:partition ~retries:(not no_retries) ~quiesce_budget:budget
          ~capacity:(Option.value ~default:recommended.Online.capacity capacity)
          ~side:(Option.value ~default:recommended.Online.side cube_side)
          ()
      with Invalid_argument m ->
        Printf.eprintf "simulate: %s\n" m;
        exit 2
    in
    if find_min then begin
      let m = Online.min_feasible_capacity ~seed:spec.seed ~side:cfg.Online.side w in
      Printf.printf "smallest workable capacity (side %d): %.3f\n" cfg.Online.side m;
      Printf.printf "LP lower bound omega*: %.3f\n"
        (Oracle.omega_star (Workload.demand w))
    end
    else begin
      let observer =
        if not trace then None
        else
          Some
            (function
            | Online.Job_served _ -> ()
            | Online.Vehicle_retired { vehicle; pair } ->
                Printf.printf "  [retired]     vehicle %d (pair %d)\n" vehicle pair
            | Online.Vehicle_died { vehicle } ->
                Printf.printf "  [died]        vehicle %d\n" vehicle
            | Online.Computation_started { initiator; pair } ->
                Printf.printf "  [diffusing]   initiator %d searching for pair %d\n"
                  initiator pair
            | Online.Candidate_found { initiator; pair } ->
                Printf.printf "  [candidate]   found for pair %d (initiator %d)\n"
                  pair initiator
            | Online.Replacement { vehicle; pair; dest } ->
                Printf.printf "  [replacement] vehicle %d takes pair %d at %s\n"
                  vehicle pair (Point.to_string dest)
            | Online.Search_starved { pair } ->
                Printf.printf "  [starved]     no idle vehicle for pair %d\n" pair
            | Online.Search_abandoned { pair } ->
                Printf.printf "  [abandoned]   search for pair %d given up as lost\n" pair)
      in
      let o =
        try Online.run ?observer cfg w
        with Invalid_argument m ->
          Printf.eprintf "simulate: %s\n" m;
          exit 2
      in
      Printf.printf "workload      : %s\n" w.Workload.name;
      Printf.printf "capacity/side : %.2f / %d\n" cfg.Online.capacity cfg.Online.side;
      Printf.printf "served        : %d/%d\n" o.Online.served
        (Array.length w.Workload.jobs);
      Printf.printf "peak energy   : %.2f\n" o.Online.max_energy_used;
      Printf.printf "replacements  : %d (%d diffusing computations, %d messages)\n"
        o.Online.replacements o.Online.computations o.Online.messages;
      if drop_p > 0.0 || dup_p > 0.0 || partition <> [] || o.Online.livelocks > 0
      then
        Printf.printf
          "channel chaos : %d dropped, %d duplicated, %d retransmissions, %d \
           livelock(s)\n"
          o.Online.drops o.Online.dups o.Online.retries_sent o.Online.livelocks;
      Printf.printf "trace digest  : %016x\n" o.Online.trace_digest;
      List.iter
        (fun f ->
          Printf.printf "FAILED job %d at %s: %s\n" f.Online.job
            (Point.to_string f.Online.position)
            f.Online.reason)
        o.Online.failures;
      if Online.succeeded o then print_endline "outcome       : SUCCESS"
      else begin
        print_endline "outcome       : FAILURE";
        if check then exit 1
      end
    end
  in
  let doc = "Run the Chapter 3 distributed online strategy." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ spec_term $ capacity $ cube_side $ kills $ silent $ find_min
      $ trace $ drop_p $ dup_p $ partition $ no_retries $ budget $ check)

(* --- fleet subcommand --- *)

let fleet_cmd =
  let capacity =
    Arg.(
      value
      & opt (some float) None
      & info [ "capacity"; "W" ]
          ~doc:
            "Per-vehicle energy.  Unlike $(b,simulate) there is no default: \
             the Lemma 3.3.1 capacity needs the aggregate demand, which is \
             not worth computing for a fleet-scale window.")
  in
  let cube_side =
    Arg.(value & opt int 4 & info [ "cube-side" ] ~doc:"Partition cube side.")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~doc:"Band count the window is split into.")
  in
  let workers =
    Arg.(
      value & opt int Pool.default_workers
      & info [ "workers"; "j" ] ~doc:"Width of the shard Domain pool.")
  in
  let kills =
    Arg.(
      value
      & opt (list (pair ~sep:':' int int)) []
      & info [ "kill" ]
          ~doc:"Comma-separated job:vehicle pairs (global window ids).")
  in
  let outages =
    Arg.(
      value
      & opt (list (t3 ~sep:':' int int float)) []
      & info [ "outage" ]
          ~doc:
            "Comma-separated job:vehicle:delay triples — vehicle falls \
             radio-silent after the job and restarts delay time units later.")
  in
  let drop_p =
    Arg.(
      value & opt float 0.0
      & info [ "drop-p" ]
          ~doc:"Probability that a channel silently drops each message.")
  in
  let dup_p =
    Arg.(
      value & opt float 0.0
      & info [ "dup-p" ]
          ~doc:"Probability that a channel delivers each message twice.")
  in
  let spike_p =
    Arg.(
      value & opt float 0.0
      & info [ "spike-p" ] ~doc:"Probability of a delay spike per message.")
  in
  let budget =
    Arg.(
      value & opt int 10_000_000
      & info [ "budget" ]
          ~doc:
            "Events dispatched per network drain before declaring a \
             livelock.  A drain carries only its jobs' replacement \
             traffic (idle pairs cost no events), far below the default.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-run the fleet single-threaded and exit 1 unless every \
             per-shard digest is bit-identical — the determinism witness CI \
             relies on.")
  in
  let run spec capacity cube_side shards workers kills outages drop_p dup_p
      spike_p budget check =
    exit_on_overflow @@ fun () ->
    let w = realize spec in
    let capacity =
      match capacity with
      | Some c -> c
      | None ->
          prerr_endline "fleet: --capacity is required";
          exit 2
    in
    let cfg =
      try
        Online.config ~seed:spec.seed
          ~faults:{ Online.no_faults with Online.deaths = kills; outages }
          ~chaos:(Des.faults ~drop_p ~dup_p ~spike_p ())
          ~quiesce_budget:budget ~capacity ~side:cube_side ()
      with Invalid_argument m ->
        Printf.eprintf "fleet: %s\n" m;
        exit 2
    in
    let f =
      try Online.run_fleet ~workers ~shards cfg w
      with Invalid_argument m ->
        Printf.eprintf "fleet: %s\n" m;
        exit 2
    in
    let o = f.Online.aggregate in
    Printf.printf "workload      : %s\n" w.Workload.name;
    Printf.printf "fleet         : %d vehicles in %d band(s), %d worker(s)\n"
      o.Online.vehicles f.Online.shard_count workers;
    Printf.printf "capacity/side : %.2f / %d\n" capacity cube_side;
    Printf.printf "served        : %d/%d\n" o.Online.served
      (Array.length w.Workload.jobs);
    Printf.printf "messages      : %d delivered (%d dropped, %d duplicated, %d \
                   retransmissions)\n"
      o.Online.messages o.Online.drops o.Online.dups o.Online.retries_sent;
    Printf.printf "replacements  : %d (%d diffusing computations, %d \
                   livelocked drains)\n"
      o.Online.replacements o.Online.computations o.Online.livelocks;
    Printf.printf "bytes/vehicle : %.0f\n" f.Online.bytes_per_vehicle;
    Array.iteri
      (fun s d -> Printf.printf "shard %-3d     : %016x\n" s d)
      f.Online.shard_digests;
    Printf.printf "aggregate     : %016x\n" o.Online.trace_digest;
    if check then begin
      let g = Online.run_fleet ~workers:1 ~shards cfg w in
      let same =
        Array.length g.Online.shard_digests = Array.length f.Online.shard_digests
        && Array.for_all2 Int.equal g.Online.shard_digests f.Online.shard_digests
      in
      if same then
        Printf.printf "check         : digests identical at %d worker(s) and 1\n"
          workers
      else begin
        Printf.printf "check         : DIGEST MISMATCH between %d worker(s) and 1\n"
          workers;
        exit 1
      end
    end
  in
  let doc = "Run the online strategy sharded across a vehicle-fleet window." in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(
      const run $ spec_term $ capacity $ cube_side $ shards $ workers $ kills
      $ outages $ drop_p $ dup_p $ spike_p $ budget $ check)

(* --- bench-diff subcommand --- *)

(* A sample as one number: a counter's count, a gauge's value, a
   timer's nanoseconds, a histogram's observation count. *)
let sample_value = function
  | Metrics.Count n -> float_of_int n
  | Metrics.Level { value; _ } -> value
  | Metrics.Span { ns; _ } -> ns
  | Metrics.Dist { count; _ } -> float_of_int count

(* [bench-diff --series DIR --metric NAME]: one metric across the
   trajectory files BENCH_pr<N>.json of DIR, in PR order, one column per
   scenario that carries it. *)
let print_series ~dir ~metric ~prefix =
  let fail e =
    Printf.eprintf "bench-diff: %s\n" e;
    exit 2
  in
  let names = try Sys.readdir dir with Sys_error e -> fail e in
  let points =
    Array.to_list names
    |> List.filter_map (fun name ->
           Option.map
             (fun n -> (n, name))
             (Scanf.sscanf_opt name "BENCH_pr%u.json%!" Fun.id))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (_, name) ->
           match Bench_report.read_file (Filename.concat dir name) with
           | Ok r -> r
           | Error e -> fail e)
  in
  let carries (s : Bench_report.scenario) =
    List.mem_assoc metric s.Bench_report.metrics
    && String.starts_with ~prefix s.Bench_report.name
  in
  let columns =
    List.fold_left
      (fun acc (r : Bench_report.t) ->
        List.fold_left
          (fun acc (s : Bench_report.scenario) ->
            if carries s && not (List.mem s.Bench_report.name acc) then
              acc @ [ s.Bench_report.name ]
            else acc)
          acc r.Bench_report.scenarios)
      [] points
  in
  if columns = [] then fail (Printf.sprintf "no scenario of %s carries metric %S" dir metric);
  let cell (r : Bench_report.t) column =
    List.find_opt
      (fun (s : Bench_report.scenario) -> String.equal s.Bench_report.name column)
      r.Bench_report.scenarios
    |> Fun.flip Option.bind (fun (s : Bench_report.scenario) ->
           List.assoc_opt metric s.Bench_report.metrics)
    |> Option.fold ~none:"-" ~some:(fun v -> Printf.sprintf "%.6g" (sample_value v))
  in
  (* A point's label: its revision up to the machine description. *)
  let label (r : Bench_report.t) =
    String.trim (List.hd (String.split_on_char '|' r.Bench_report.revision))
  in
  let rows =
    ("point" :: columns)
    :: List.map (fun r -> label r :: List.map (cell r) columns) points
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map (fun _ -> 0) (List.hd rows))
      rows
  in
  Printf.printf "bench-diff: %s across %d point(s) of %s\n" metric
    (List.length points) dir;
  List.iter
    (fun row ->
      print_endline
        (String.trim (String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths row))))
    rows

let bench_diff_cmd =
  let baseline =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"BASELINE"
         ~doc:"Baseline BENCH_<rev>.json report.")
  in
  let candidate =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"CANDIDATE"
         ~doc:"Candidate BENCH_<rev>.json report to vet against the baseline.")
  in
  let series =
    Arg.(
      value & opt (some dir) None
      & info [ "series" ] ~docv:"DIR"
          ~doc:
            "Instead of comparing two reports, print the metric named by \
             $(b,--metric) across the trajectory files BENCH_pr<N>.json of \
             $(docv), in PR order, one column per scenario that carries \
             it (see bench/trajectory).")
  in
  let metric =
    Arg.(
      value & opt (some string) None
      & info [ "metric" ] ~docv:"NAME" ~doc:"The metric that $(b,--series) prints.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.5
      & info [ "tolerance" ]
          ~doc:
            "Allowed relative growth of wall times and timer spans: a \
             duration regresses when new > (1 + tolerance) * old + 0.5ms.")
  in
  let metric_tolerance =
    Arg.(
      value & opt float 0.1
      & info [ "metric-tolerance" ]
          ~doc:
            "Allowed relative growth of counters and gauge peaks (these are \
             deterministic, so keep it tight even across machines).")
  in
  let scenario_prefix =
    Arg.(
      value & opt (some string) None
      & info [ "scenario" ] ~docv:"PREFIX"
          ~doc:
            "Restrict the comparison, or the columns of $(b,--series), to \
             scenarios whose name starts with $(docv) (e.g. oracle/).  Lets \
             CI hold a hot subsystem to a tighter tolerance than the rest of \
             the suite.")
  in
  let diff_reports baseline_path candidate_path tolerance metric_tolerance
      scenario_prefix =
    if tolerance < 0.0 || metric_tolerance < 0.0 then begin
      Printf.eprintf "bench-diff: tolerances must be non-negative\n";
      exit 2
    end;
    let load path =
      match Bench_report.read_file path with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "bench-diff: %s\n" e;
          exit 2
    in
    let restrict (r : Bench_report.t) =
      match scenario_prefix with
      | None -> r
      | Some prefix ->
          {
            r with
            Bench_report.scenarios =
              List.filter
                (fun (s : Bench_report.scenario) ->
                  String.starts_with ~prefix s.Bench_report.name)
                r.Bench_report.scenarios;
          }
    in
    let baseline = restrict (load baseline_path) in
    let candidate = restrict (load candidate_path) in
    (match (scenario_prefix, baseline.Bench_report.scenarios) with
    | Some prefix, [] ->
        Printf.eprintf
          "bench-diff: no baseline scenario matches prefix %S\n" prefix;
        exit 2
    | _ -> ());
    let compared =
      List.length
        (List.filter
           (fun (s : Bench_report.scenario) ->
             List.exists
               (fun (c : Bench_report.scenario) -> c.Bench_report.name = s.Bench_report.name)
               candidate.Bench_report.scenarios)
           baseline.Bench_report.scenarios)
    in
    Printf.printf
      "bench-diff: baseline %s (rev %s) vs candidate %s (rev %s); %d \
       scenario(s) compared\n"
      baseline_path baseline.Bench_report.revision candidate_path
      candidate.Bench_report.revision compared;
    if baseline.Bench_report.quick <> candidate.Bench_report.quick then
      Printf.printf
        "warning: comparing a %s baseline against a %s candidate\n"
        (if baseline.Bench_report.quick then "quick" else "full")
        (if candidate.Bench_report.quick then "quick" else "full");
    match
      Bench_report.diff ~wall_tolerance:tolerance ~metric_tolerance ~baseline
        ~candidate ()
    with
    | [] ->
        Printf.printf
          "OK: no regression (wall tolerance %.0f%%, metric tolerance %.0f%%)\n"
          (100.0 *. tolerance)
          (100.0 *. metric_tolerance)
    | regressions ->
        List.iter
          (fun r ->
            Format.printf "REGRESSION %a@." Bench_report.pp_regression r)
          regressions;
        Printf.printf "%d regression(s) found\n" (List.length regressions);
        exit 1
  in
  let run baseline_path candidate_path tolerance metric_tolerance scenario_prefix
      series metric =
    match (series, metric, baseline_path, candidate_path) with
    | Some dir, Some metric, None, None ->
        print_series ~dir ~metric ~prefix:(Option.value scenario_prefix ~default:"")
    | Some _, _, _, _ | None, Some _, _, _ ->
        Printf.eprintf
          "bench-diff: --series DIR and --metric NAME go together, without \
           BASELINE and CANDIDATE\n";
        exit 2
    | None, None, Some baseline_path, Some candidate_path ->
        diff_reports baseline_path candidate_path tolerance metric_tolerance
          scenario_prefix
    | None, None, _, _ ->
        Printf.eprintf "bench-diff: BASELINE and CANDIDATE are required\n";
        exit 2
  in
  let doc =
    "Compare two benchmark reports; exit 1 on regression.  With --series, \
     print one metric across a trajectory directory instead."
  in
  Cmd.v
    (Cmd.info "bench-diff" ~doc)
    Term.(
      const run $ baseline $ candidate $ tolerance $ metric_tolerance
      $ scenario_prefix $ series $ metric)

let () =
  let doc = "CMVRP: capacitated multivehicle routing on the grid (Gao 2008)" in
  let info = Cmd.info "cmvrp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ workload_cmd; solve_cmd; simulate_cmd; fleet_cmd; bench_diff_cmd ]))
