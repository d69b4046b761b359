(* The benchmark-report codec and the bench-diff regression rule:
   roundtrips, injected slowdowns/counter bloat getting flagged, missing
   scenarios, and a qcheck property that diffing a report against itself
   never regresses (the guarantee CI's gate relies on). *)

let sample_report ?(revision = "r0") ?(wall = [ 5.0; 12.0 ]) () =
  let scen i w =
    {
      Bench_report.name = Printf.sprintf "scenario-%d" i;
      wall_ms = w;
      metrics =
        [
          ("work.counter", Metrics.Count (100 * (i + 1)));
          ("work.gauge", Metrics.Level { value = 3.0; peak = 7.5 });
          ("work.timer", Metrics.Span { ns = 2.0e6 *. w; calls = 4 });
        ];
    }
  in
  Bench_report.make ~revision ~quick:true (List.mapi scen wall)

let test_roundtrip () =
  let r = sample_report () in
  match Bench_report.of_json (Bench_report.to_json r) with
  | Ok r' -> Alcotest.(check bool) "report roundtrips" true (r = r')
  | Error e -> Alcotest.fail e

let test_file_roundtrip () =
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = sample_report ~revision:"file-test" () in
      Bench_report.write_file path r;
      match Bench_report.read_file path with
      | Ok r' -> Alcotest.(check bool) "file roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)

let test_identical_reports_clean () =
  let r = sample_report () in
  Alcotest.(check int) "self-diff is empty" 0
    (List.length (Bench_report.diff ~baseline:r ~candidate:r ()))

let test_wall_slowdown_flagged () =
  let baseline = sample_report ~wall:[ 5.0; 12.0 ] () in
  let candidate = sample_report ~wall:[ 5.0; 24.0 ] () in
  let regs = Bench_report.diff ~baseline ~candidate () in
  (* the 2x scenario trips both its wall time and its (wall-derived)
     timer span; the untouched scenario stays clean *)
  Alcotest.(check bool) "2x slowdown flagged" true
    (List.exists
       (fun r ->
         r.Bench_report.scenario = "scenario-1" && r.subject = "wall_ms")
       regs);
  Alcotest.(check bool) "untouched scenario clean" true
    (not (List.exists (fun r -> r.Bench_report.scenario = "scenario-0") regs))

let test_speedup_not_flagged () =
  let baseline = sample_report ~wall:[ 5.0; 12.0 ] () in
  let candidate = sample_report ~wall:[ 5.0; 6.0 ] () in
  Alcotest.(check int) "improvements never flagged" 0
    (List.length (Bench_report.diff ~baseline ~candidate ()))

let test_counter_bloat_flagged () =
  let baseline = sample_report () in
  let bloat s =
    {
      s with
      Bench_report.metrics =
        List.map
          (function
            | n, Metrics.Count c -> (n, Metrics.Count (2 * c))
            | m -> m)
          s.Bench_report.metrics;
    }
  in
  let candidate =
    { baseline with scenarios = List.map bloat baseline.scenarios }
  in
  let regs = Bench_report.diff ~baseline ~candidate () in
  Alcotest.(check int) "one regression per scenario" 2 (List.length regs);
  List.iter
    (fun r ->
      Alcotest.(check string) "counter is the subject" "work.counter"
        r.Bench_report.subject)
    regs

let test_missing_scenario_flagged () =
  let baseline = sample_report () in
  let candidate =
    { baseline with scenarios = [ List.hd baseline.scenarios ] }
  in
  match Bench_report.diff ~baseline ~candidate () with
  | [ r ] ->
      Alcotest.(check string) "subject" "missing" r.Bench_report.subject;
      Alcotest.(check string) "scenario" "scenario-1" r.scenario
  | regs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one regression, got %d"
           (List.length regs))

let test_new_metric_ignored () =
  (* adding instrumentation must not fail the gate against an old
     baseline that predates the metric *)
  let baseline = sample_report () in
  let extend s =
    {
      s with
      Bench_report.metrics =
        ("brand.new", Metrics.Count 999) :: s.Bench_report.metrics;
    }
  in
  let candidate =
    { baseline with scenarios = List.map extend baseline.scenarios }
  in
  Alcotest.(check int) "new metrics ignored" 0
    (List.length (Bench_report.diff ~baseline ~candidate ()))

let test_negative_tolerance_rejected () =
  let r = sample_report () in
  Alcotest.(check bool) "negative tolerance raises" true
    (try
       ignore
         (Bench_report.diff ~wall_tolerance:(-0.1) ~baseline:r ~candidate:r ());
       false
     with Invalid_argument _ -> true)

(* qcheck: bench-diff is symmetric-safe — for ANY generated report and
   ANY non-negative tolerances, diffing the report against itself yields
   no regressions (otherwise CI would flake on unchanged code). *)

let gen_sample =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> Metrics.Count c) (int_range 0 1_000_000);
        map2
          (fun v p -> Metrics.Level { value = v; peak = Float.max v p })
          (float_range 0.0 1e6) (float_range 0.0 1e6);
        map2
          (fun ns calls -> Metrics.Span { ns; calls })
          (float_range 0.0 1e12) (int_range 0 10_000);
      ])

let gen_scenario =
  QCheck.Gen.(
    map3
      (fun i wall_ms samples ->
        {
          Bench_report.name = Printf.sprintf "s%d" i;
          wall_ms;
          metrics = List.mapi (fun j s -> (Printf.sprintf "m%d" j, s)) samples;
        })
      (int_range 0 1000) (float_range 0.0 1e4)
      (list_size (int_range 0 8) gen_sample))

let gen_report =
  QCheck.Gen.(
    map
      (fun scenarios ->
        (* duplicate names would make self-matching ambiguous; the bench
           harness never produces them, so neither does the generator *)
        let seen = Hashtbl.create 8 in
        let unique =
          List.filter
            (fun s ->
              let fresh = not (Hashtbl.mem seen s.Bench_report.name) in
              Hashtbl.replace seen s.Bench_report.name ();
              fresh)
            scenarios
        in
        Bench_report.make ~revision:"prop" ~quick:true unique)
      (list_size (int_range 0 6) gen_scenario))

let arb_report_and_tols =
  QCheck.make
    QCheck.Gen.(
      triple gen_report (float_range 0.0 2.0) (float_range 0.0 2.0))

let prop_self_diff_empty =
  QCheck.Test.make ~name:"bench-diff never flags an unchanged report"
    ~count:200 arb_report_and_tols
    (fun (r, wall_tolerance, metric_tolerance) ->
      Bench_report.diff ~wall_tolerance ~metric_tolerance ~baseline:r
        ~candidate:r ()
      = [])

(* --- The benchmark trajectory (bench/trajectory) ---

   One BENCH_pr<N>.json per PR: the quick suite's scenarios and one
   e2e/<workload> scenario per benchmark/ workload, carrying the four
   end-to-end metrics and the traced per-layer ones.  Every file must
   parse and name its PR; [bench-diff --series] prints one metric across
   them in PR order. *)

let trajectory_dir = "../bench/trajectory"

let trajectory_files () =
  List.sort
    (fun a b -> Int.compare (fst a) (fst b))
    (List.filter_map
       (fun f -> Option.map (fun n -> (n, f)) (Scanf.sscanf_opt f "BENCH_pr%u.json%!" Fun.id))
       (Array.to_list (Sys.readdir trajectory_dir)))

let e2e_workloads = [ "serve-hot"; "serve-cold"; "stream-churn"; "fleet-50k" ]

let test_trajectory_points_parse () =
  let files = trajectory_files () in
  Alcotest.(check bool) "at least ten points" true (List.length files >= 10);
  List.iter
    (fun (n, f) ->
      match Bench_report.read_file (Filename.concat trajectory_dir f) with
      | Error e -> Alcotest.fail e
      | Ok r ->
          let pr = Printf.sprintf "pr%d " n in
          Alcotest.(check bool)
            (f ^ " revision names its PR: " ^ r.Bench_report.revision)
            true
            (String.starts_with ~prefix:pr r.Bench_report.revision);
          let scenario name =
            List.find_opt
              (fun (s : Bench_report.scenario) -> String.equal s.Bench_report.name name)
              r.Bench_report.scenarios
          in
          Alcotest.(check bool) (f ^ " has the quick suite") true
            (Option.is_some (scenario "des/kernel"));
          List.iter
            (fun w ->
              match scenario ("e2e/" ^ w) with
              | None -> Alcotest.failf "%s: no e2e/%s scenario" f w
              | Some s ->
                  List.iter
                    (fun m ->
                      if not (List.mem_assoc m s.Bench_report.metrics) then
                        Alcotest.failf "%s: e2e/%s lacks %s" f w m)
                    [ "setup_s"; "latency_p50_us"; "ops_per_s"; "peak_rss_mb";
                      "attempted"; "failed"; "gc.minor_words_per_op" ])
            e2e_workloads)
    files

let cli_exe = Filename.concat ".." (Filename.concat "bin" "cmvrp_cli.exe")

let test_series_view () =
  let out = Filename.temp_file "cmvrp_series" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let run args =
        let status =
          Sys.command
            (Filename.quote_command cli_exe ~stdout:out ~stderr:Filename.null
               ("bench-diff" :: args))
        in
        (status, In_channel.with_open_text out In_channel.input_lines)
      in
      let status, lines =
        run [ "--series"; trajectory_dir; "--metric"; "ops_per_s"; "--scenario"; "e2e/" ]
      in
      Alcotest.(check int) "exit status" 0 status;
      let files = trajectory_files () in
      Alcotest.(check int) "title, header and one row per point"
        (List.length files + 2) (List.length lines);
      (match lines with
      | _ :: header :: rows ->
          List.iter
            (fun w ->
              Alcotest.(check bool) ("column e2e/" ^ w) true
                (Option.is_some
                   (List.find_opt (String.equal ("e2e/" ^ w))
                      (String.split_on_char ' ' header))))
            e2e_workloads;
          List.iter2
            (fun (n, _) row ->
              Alcotest.(check bool) ("row of pr" ^ string_of_int n) true
                (String.starts_with ~prefix:(Printf.sprintf "pr%d " n) row))
            files rows
      | _ -> Alcotest.fail "no header");
      let status, _ = run [ "--series"; trajectory_dir; "--metric"; "no.such.metric" ] in
      Alcotest.(check int) "unknown metric exits 2" 2 status;
      let status, _ = run [ "--series"; trajectory_dir ] in
      Alcotest.(check int) "--series without --metric exits 2" 2 status)

let suite =
  [
    Alcotest.test_case "trajectory points parse" `Quick test_trajectory_points_parse;
    Alcotest.test_case "series view" `Quick test_series_view;
    Alcotest.test_case "json roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "identical reports clean" `Quick
      test_identical_reports_clean;
    Alcotest.test_case "2x wall slowdown flagged" `Quick
      test_wall_slowdown_flagged;
    Alcotest.test_case "speedup not flagged" `Quick test_speedup_not_flagged;
    Alcotest.test_case "counter bloat flagged" `Quick test_counter_bloat_flagged;
    Alcotest.test_case "missing scenario flagged" `Quick
      test_missing_scenario_flagged;
    Alcotest.test_case "new metric ignored" `Quick test_new_metric_ignored;
    Alcotest.test_case "negative tolerance rejected" `Quick
      test_negative_tolerance_rejected;
    QCheck_alcotest.to_alcotest prop_self_diff_empty;
  ]
