(* Tests of the benchmark program: the order statistics it reports, the
   agreement of its metric tables with BENCHMARK.json, and a toy-size run
   of every workload in both modes. *)

open Cmvrp_benchmark

let float_eq = Alcotest.float 0.0

let test_exact_quantile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check float_eq "p99 of 1..100" 99.0 (Quantile.exact xs 0.99);
  Alcotest.check float_eq "p90 of 1..100" 90.0 (Quantile.exact xs 0.90);
  Alcotest.check float_eq "p50 of 1..100" 50.0 (Quantile.exact xs 0.50);
  Alcotest.check float_eq "p100 is the maximum" 100.0 (Quantile.exact xs 1.0);
  Alcotest.check float_eq "p0 is the minimum" 1.0 (Quantile.exact xs 0.0);
  Alcotest.check float_eq "p90 of 8 samples is the largest" 8.0
    (Quantile.exact (Array.init 8 (fun i -> float_of_int (i + 1))) 0.90);
  Alcotest.check_raises "no samples" (Invalid_argument "Quantile.exact: no samples")
    (fun () -> ignore (Quantile.exact [||] 0.5))

let test_median () =
  Alcotest.check float_eq "odd count" 2.0 (Quantile.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check float_eq "even count" 2.5 (Quantile.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check float_eq "one sample" 7.0 (Quantile.median [| 7.0 |])

(* --- BENCHMARK.json --- *)

let manifest =
  lazy
    (match
       Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
     with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing %s" name

let strings name j = Option.get (Json.to_string_opt (field name j))

let declared key =
  List.map
    (fun m -> (strings "name" m, strings "unit" m))
    (Option.get (Json.to_list_opt (field key (Lazy.force manifest))))

let pairs = Alcotest.(list (pair string string))

let test_manifest () =
  Alcotest.(check (list string))
    "workloads" Report.workloads
    (List.map (strings "name")
       (Option.get (Json.to_list_opt (field "workloads" (Lazy.force manifest)))));
  Alcotest.check pairs "end_to_end" Report.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Report.per_layer (declared "per_layer")

(* --- toy-size runs --- *)

let serve_sizes =
  {
    Serve_load.distinct = 64;
    warmup = 16;
    latency_reqs = 32;
    throughput_reqs = 64;
    samples = 16;
    pings = 8;
    replay = 32;
  }

let run_workload name ~trace =
  let trace_path = if trace then Some ("trace-" ^ name ^ ".json") else None in
  let seed = 5 and seconds = 0.001 in
  match name with
  | "serve-hot" | "serve-cold" ->
      let mix = if String.equal name "serve-hot" then Serve_load.Hot else Serve_load.Cold in
      Serve_load.run ~sizes:serve_sizes ~exe:"../../bin/cmvrp_serve.exe" ~dir:"."
        ~trace_path mix ~seed ~seconds
  | "stream-churn" ->
      Stream_load.run
        ~sizes:{ Stream_load.warmup = 50; round = 100; check_every = 10; traced = 100 }
        ~trace_path ~seed ~seconds ()
  | _ -> Fleet_load.run ~sizes:{ Fleet_load.box_side = 24; jobs = 6 } ~trace_path ~seed ~seconds ()

(* The printed result carries exactly the declared metric set of the
   mode, each with its declared unit, and the workload measured nothing
   undeclared. *)
let check_result name ~trace =
  let o = run_workload name ~trace in
  let key = if trace then "per_layer" else "end_to_end" in
  let declared = declared key in
  Alcotest.(check int) (name ^ ": no failed operation") 0 o.Report.failed;
  Alcotest.(check bool) (name ^ ": attempted some") true (o.Report.attempted > 0);
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m declared) then Alcotest.failf "%s emits undeclared %s" name m)
    o.Report.metrics;
  let line = Report.json_line ~correct:true ~trace o in
  let j = match Json.of_string line with Ok j -> j | Error e -> Alcotest.fail e in
  let metrics = Option.get (Json.to_obj_opt (field "metrics" j)) in
  Alcotest.check pairs (name ^ " " ^ key) declared
    (List.map (fun (m, v) -> (m, strings "unit" v)) metrics);
  if trace then
    match
      Json.of_string
        (In_channel.with_open_bin ("trace-" ^ name ^ ".json") In_channel.input_all)
    with
    | Ok t -> Alcotest.(check bool) "trace events" true (Option.is_some (Json.member "traceEvents" t))
    | Error e -> Alcotest.failf "%s: chrome trace does not parse: %s" name e

let smoke name =
  [
    Alcotest.test_case (name ^ " end to end") `Quick (fun () -> check_result name ~trace:false);
    Alcotest.test_case (name ^ " traced") `Quick (fun () -> check_result name ~trace:true);
  ]

let () =
  Alcotest.run "benchmark"
    [
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_exact_quantile;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("manifest", [ Alcotest.test_case "matches Report" `Quick test_manifest ]);
      ("workloads", List.concat_map smoke Report.workloads);
    ]
