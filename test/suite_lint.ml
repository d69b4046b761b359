(* Fixture-driven tests for the cmvrp_lint static-analysis pass
   (tools/lint).  Library-level tests call [Lint_rules.run] directly and
   assert the exact rule ids each committed fixture produces;
   executable-level tests exercise exit codes and the [--out] JSON
   report.  The test cwd is [_build/default/test], so fixtures live at
   [fixtures/lint] and the executable at [../tools/lint]. *)

let fixture name = Filename.concat "fixtures/lint" name

let rules_of path =
  let _, diags = Lint_rules.run [ fixture path ] in
  List.sort String.compare (List.map (fun d -> d.Lint_rules.rule) diags)

let check_rules path expected =
  Alcotest.(check (list string))
    path
    (List.sort String.compare expected)
    (rules_of path)

let test_poly_compare () =
  check_rules "poly_compare_fail.ml"
    [ "poly-compare"; "poly-compare"; "poly-compare"; "poly-compare"; "poly-compare" ];
  check_rules "poly_compare_pass.ml" []

let test_handler_raise () =
  check_rules "handler_raise_fail.ml"
    [ "handler-raise"; "handler-raise"; "handler-raise" ];
  check_rules "handler_raise_pass.ml" []

let test_missing_mli () =
  check_rules "lib/missing_mli_fail.ml" [ "missing-mli" ];
  check_rules "lib/missing_mli_pass.ml" []

let test_print_in_lib () =
  check_rules "lib/print_fail.ml" [ "print-in-lib"; "print-in-lib" ];
  check_rules "lib/print_pass.ml" []

let test_metric_name () =
  check_rules "metric_name_fail.ml"
    [ "metric-name"; "metric-name"; "metric-name"; "metric-name" ];
  check_rules "metric_name_dup_fail.ml" [ "metric-name" ];
  check_rules "metric_name_pass.ml" []

let test_unsafe_array () =
  check_rules "unsafe_array_fail.ml" [ "unsafe-array"; "unsafe-array" ];
  check_rules "lib/flow/unsafe_array_pass.ml" []

let test_energy_arith () =
  check_rules "energy_arith_fail.ml"
    [ "energy-arith"; "energy-arith"; "energy-arith" ];
  check_rules "energy_arith_pass.ml" []

let test_catch_all () =
  check_rules "catch_all_fail.ml" [ "catch-all" ];
  check_rules "catch_all_pass.ml" []

let test_domain_confine () =
  check_rules "domain_confine_fail.ml"
    [ "domain-confine"; "domain-confine"; "domain-confine" ];
  check_rules "lib/prelude/pool.ml" [];
  check_rules "lib/metrics/locking_pass.ml" []

(* [dead] is called only by its own module and [Nested.unused] by no
   one, while [test_only] (called from test/), [from_bin] (from the
   sibling bin/) and [Nested.used] have callers; [waived] carries a
   waiver, and a reference under a fixtures directory does not count. *)
let test_dead_export () =
  check_rules "lib/dead_export.ml" [ "dead-export"; "dead-export" ];
  let _, diags = Lint_rules.run [ fixture "lib/dead_export.ml" ] in
  Alcotest.(check (list (pair string int)))
    "reported at the interface's val"
    [ (fixture "lib/dead_export.mli", 3); (fixture "lib/dead_export.mli", 20) ]
    (List.map (fun d -> (d.Lint_rules.file, d.Lint_rules.line)) diags);
  List.iter2
    (fun name d ->
      Alcotest.(check bool)
        (name ^ " named") true
        (String.starts_with ~prefix:("`" ^ name ^ "`") d.Lint_rules.message))
    [ "Dead_export.dead"; "Dead_export.Nested.unused" ]
    diags;
  check_rules "bin/callers.ml" []

let test_waiver () = check_rules "waiver.ml" []
let test_clean () = check_rules "clean.ml" []

let test_unused_waiver () =
  (* A marker waiving a rule that never fires, and one with a
     misspelled id (so the real violation on its line survives). *)
  check_rules "unused_waiver_fail.ml"
    [ "poly-compare"; "unused-waiver"; "unused-waiver" ];
  check_rules "unused_waiver_only.ml" [ "unused-waiver" ];
  let _, diags = Lint_rules.run [ fixture "unused_waiver_only.ml" ] in
  Alcotest.(check bool)
    "unused-waiver is advisory" true
    (List.for_all (fun d -> d.Lint_rules.advisory) diags)

(* Linting the whole fixture tree exercises every rule exactly as the
   per-fixture counts above add up, and doubles as a parse check (a
   broken fixture would surface as a [parse-error] diagnostic). *)
let test_fixture_tree () =
  let _, diags = Lint_rules.run [ fixture "" ] in
  Alcotest.(check int) "total diagnostics" 31 (List.length diags);
  let seen =
    List.sort_uniq String.compare
      (List.map (fun d -> d.Lint_rules.rule) diags)
  in
  Alcotest.(check (list string))
    "every rule exercised"
    (List.sort String.compare Lint_rules.rule_ids)
    seen

let test_missing_path () =
  match Lint_rules.run [ fixture "no_such_dir" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a missing path"

(* Executable-level tests. *)

let exe = Filename.concat ".." (Filename.concat "tools/lint" "cmvrp_lint.exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

(* Capture files go through [Filename.temp_file] and are removed on every
   exit path — a failing assertion must not leak them into the cwd. *)
let run_exe args =
  let out = Filename.temp_file "cmvrp_lint_out" ".tmp" in
  let err = Filename.temp_file "cmvrp_lint_err" ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      remove_noerr out;
      remove_noerr err)
    (fun () ->
      Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args))

let test_exe_exit_codes () =
  Alcotest.(check int) "clean fixture exits 0" 0 (run_exe [ fixture "clean.ml" ]);
  Alcotest.(check int)
    "advisory-only fixture exits 0" 0
    (run_exe [ fixture "unused_waiver_only.ml" ]);
  Alcotest.(check int)
    "failing fixture exits 1" 1
    (run_exe [ fixture "poly_compare_fail.ml" ]);
  Alcotest.(check int)
    "missing path exits 2" 2
    (run_exe [ fixture "no_such_dir" ]);
  Alcotest.(check int) "unknown flag exits 2" 2 (run_exe [ "--bogus-flag" ])

let test_exe_json_report () =
  let report = Filename.temp_file "cmvrp_lint_report" ".json" in
  Fun.protect ~finally:(fun () -> remove_noerr report) @@ fun () ->
  let code = run_exe [ "--out"; report; fixture "poly_compare_fail.ml" ] in
  Alcotest.(check int) "exit code" 1 code;
  let doc =
    match Json.of_string (read_file report) with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparseable JSON report: %s" e
  in
  let int_field name =
    match Option.bind (Json.member name doc) Json.to_int_opt with
    | Some n -> n
    | None -> Alcotest.failf "report lacks int field %S" name
  in
  Alcotest.(check int) "checked_files" 1 (int_field "checked_files");
  Alcotest.(check int) "violations" 5 (int_field "violations");
  Alcotest.(check int) "advisories" 0 (int_field "advisories");
  let diags =
    match Option.bind (Json.member "diagnostics" doc) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "report lacks a diagnostics array"
  in
  Alcotest.(check int) "diagnostic count" 5 (List.length diags);
  List.iter
    (fun d ->
      (match Option.bind (Json.member "rule" d) Json.to_string_opt with
      | Some r -> Alcotest.(check string) "rule id" "poly-compare" r
      | None -> Alcotest.fail "diagnostic without a rule field");
      match Option.bind (Json.member "advisory" d) Json.to_bool_opt with
      | Some b -> Alcotest.(check bool) "blocking diagnostic" false b
      | None -> Alcotest.fail "diagnostic without an advisory field")
    diags

let suite =
  [
    Alcotest.test_case "poly-compare fixtures" `Quick test_poly_compare;
    Alcotest.test_case "handler-raise fixtures" `Quick test_handler_raise;
    Alcotest.test_case "missing-mli fixtures" `Quick test_missing_mli;
    Alcotest.test_case "print-in-lib fixtures" `Quick test_print_in_lib;
    Alcotest.test_case "metric-name fixtures" `Quick test_metric_name;
    Alcotest.test_case "unsafe-array fixtures" `Quick test_unsafe_array;
    Alcotest.test_case "energy-arith fixtures" `Quick test_energy_arith;
    Alcotest.test_case "catch-all fixtures" `Quick test_catch_all;
    Alcotest.test_case "domain-confine fixtures" `Quick test_domain_confine;
    Alcotest.test_case "dead-export fixtures" `Quick test_dead_export;
    Alcotest.test_case "waivers suppress diagnostics" `Quick test_waiver;
    Alcotest.test_case "unused waivers reported" `Quick test_unused_waiver;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "whole fixture tree" `Quick test_fixture_tree;
    Alcotest.test_case "missing path rejected" `Quick test_missing_path;
    Alcotest.test_case "exe exit codes" `Quick test_exe_exit_codes;
    Alcotest.test_case "exe --out JSON report" `Quick test_exe_json_report;
  ]
