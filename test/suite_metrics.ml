(* The observability registry: counter/gauge/timer semantics,
   snapshot/reset behavior, the JSON codec (golden test + roundtrips),
   and the documented keyspace.

   The registry is global, so every test namespaces its cells under
   "test." and calls Metrics.reset (the production cells registered by
   the instrumented libraries are left alone — reset only zeroes). *)

let test_counter_semantics () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  Alcotest.(check int) "incr + add" 42 (Metrics.count c);
  let c' = Metrics.counter "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create aliases the same cell" 43 (Metrics.count c)

let test_kind_clash_rejected () =
  let _ = Metrics.counter "test.kind-clash" in
  Alcotest.(check bool) "re-registering as a gauge raises" true
    (try
       let _ = Metrics.gauge "test.kind-clash" in
       false
     with Invalid_argument _ -> true)

let test_gauge_peak () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 3.0;
  Metrics.set_gauge g 10.0;
  Metrics.set_gauge g 4.0;
  Alcotest.(check (float 0.0)) "current value" 4.0 (Metrics.gauge_value g);
  Alcotest.(check (float 0.0)) "high-water mark" 10.0 (Metrics.gauge_peak g)

let test_timer_accumulates () =
  Metrics.reset ();
  let t = Metrics.timer "test.timer" in
  let result = Metrics.time t (fun () -> List.init 1000 Fun.id |> List.length) in
  Alcotest.(check int) "thunk result passes through" 1000 result;
  ignore (Metrics.time t (fun () -> ()));
  Alcotest.(check int) "two calls" 2 (Metrics.timer_calls t);
  Alcotest.(check bool) "non-negative duration" true (Metrics.timer_ns t >= 0.0)

let test_timer_records_on_exception () =
  Metrics.reset ();
  let t = Metrics.timer "test.timer-exn" in
  (try Metrics.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "exceptional call still counted" 1 (Metrics.timer_calls t)

let test_instrumented_maxflow_counts () =
  (* End-to-end: a max-flow run bumps the process-wide flow counters. *)
  Metrics.reset ();
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:2);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:1);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1);
  Alcotest.(check int) "push-relabel flow value" 3
    (Maxflow.max_flow net ~source:0 ~sink:3);
  (match Metrics.sample "maxflow.global_relabels" with
  | Some (Metrics.Count n) ->
      Alcotest.(check bool) "global relabels recorded" true (n >= 1)
  | _ -> Alcotest.fail "maxflow.global_relabels counter missing");
  match Metrics.sample "maxflow.runs" with
  | Some (Metrics.Count n) -> Alcotest.(check int) "one run" 1 n
  | _ -> Alcotest.fail "maxflow.runs counter missing"

let test_histogram_quantiles () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histogram" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.histogram_quantile h 0.5));
  (* Buckets are 1µs·2^i: 1_500 ns lands in the 2_000 ns bucket and
     900_000 ns in the 1_024_000 ns bucket. *)
  for _ = 1 to 90 do
    Metrics.observe h 1_500.0
  done;
  for _ = 1 to 10 do
    Metrics.observe h 900_000.0
  done;
  Alcotest.(check int) "count" 100 (Metrics.histogram_count h);
  Alcotest.(check (float 1.0)) "sum" 9_135_000.0 (Metrics.histogram_sum h);
  Alcotest.(check (float 0.0)) "p50" 2_000.0 (Metrics.histogram_quantile h 0.50);
  Alcotest.(check (float 0.0)) "p90 (rank 90 still low bucket)" 2_000.0
    (Metrics.histogram_quantile h 0.90);
  Alcotest.(check (float 0.0)) "p95" 1_024_000.0
    (Metrics.histogram_quantile h 0.95);
  Alcotest.(check (float 0.0)) "p99" 1_024_000.0
    (Metrics.histogram_quantile h 0.99);
  (match Metrics.histogram_quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile outside [0,1] must raise");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.histogram_count h)

let test_histogram_extremes () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histogram-extremes" in
  Metrics.observe h (-5.0);
  Alcotest.(check (float 0.0)) "negative clamps to the lowest bucket" 1_000.0
    (Metrics.histogram_quantile h 0.5);
  Metrics.observe h 1e18;
  Alcotest.(check bool) "huge value lands in the overflow bucket" true
    (Metrics.histogram_quantile h 1.0 >= 1e15);
  Alcotest.(check int) "both counted" 2 (Metrics.histogram_count h)

let test_snapshot_sorted_and_reset () =
  Metrics.reset ();
  let c = Metrics.counter "test.zz-last" in
  Metrics.incr c;
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes but keeps the cell" 0 (Metrics.count c);
  Alcotest.(check bool) "cell still registered" true
    (List.mem "test.zz-last" (List.map fst (Metrics.snapshot ())))

let test_json_snapshot_golden () =
  Metrics.reset ();
  let c = Metrics.counter "test.golden-counter" in
  let g = Metrics.gauge "test.golden-gauge" in
  Metrics.add c 7;
  Metrics.set_gauge g 2.5;
  Metrics.set_gauge g 1.5;
  let keep = [ "test.golden-counter"; "test.golden-gauge" ] in
  let snap =
    List.filter (fun (n, _) -> List.mem n keep) (Metrics.snapshot ())
  in
  let expected =
    "{\"test.golden-counter\":{\"type\":\"counter\",\"value\":7},\
     \"test.golden-gauge\":{\"type\":\"gauge\",\"value\":1.5,\"peak\":2.5}}"
  in
  Alcotest.(check string) "golden JSON" expected
    (Json.to_string ~compact:true (Metrics.json_of_snapshot snap))

let test_json_roundtrip () =
  let samples =
    [
      Metrics.Count 42;
      Metrics.Level { value = 1.25; peak = 8.0 };
      Metrics.Span { ns = 123456.0; calls = 3 };
      Metrics.Dist
        { count = 7; sum = 9500.0; buckets = [ (1000.0, 4); (2000.0, 3) ] };
    ]
  in
  List.iter
    (fun s ->
      match Metrics.sample_of_json (Metrics.json_of_sample s) with
      | Ok s' -> Alcotest.(check bool) "sample roundtrips" true (s = s')
      | Error e -> Alcotest.fail e)
    samples

let test_json_parser () =
  let ok text expected =
    match Json.of_string text with
    | Ok v -> Alcotest.(check bool) (Printf.sprintf "parse %s" text) true (v = expected)
    | Error e -> Alcotest.fail e
  in
  ok "null" Json.Null;
  ok " [1, 2.5, \"a\\nb\", true, {}] "
    (Json.List
       [ Json.Int 1; Json.Float 2.5; Json.String "a\nb"; Json.Bool true; Json.Obj [] ]);
  ok "{\"k\": [-3e2]}" (Json.Obj [ ("k", Json.List [ Json.Float (-300.0) ]) ]);
  ok "\"\\u0041\"" (Json.String "A");
  let fails text =
    match Json.of_string text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" text)
    | Error _ -> ()
  in
  fails "{";
  fails "[1,]";
  fails "nulll";
  fails "{\"a\" 1}";
  fails "1 2"

let test_json_print_parse_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "quote \" backslash \\ newline \n tab \t");
        ("n", Json.List [ Json.Int 0; Json.Int (-17); Json.Float 0.125 ]);
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("nested", Json.Obj [ ("deep", Json.List [ Json.Obj [] ]) ]);
      ]
  in
  List.iter
    (fun compact ->
      match Json.of_string (Json.to_string ~compact v) with
      | Ok v' -> Alcotest.(check bool) "print/parse identity" true (v = v')
      | Error e -> Alcotest.fail e)
    [ true; false ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix path ".ml" then [ path ]
         else [])

(* The names in [src] registered by a literal: [Metrics.<kind>], then
   blanks, then a string literal. *)
let registered_names src =
  let n = String.length src in
  let rec skip_blanks i =
    if i < n && (src.[i] = ' ' || src.[i] = '\n') then skip_blanks (i + 1) else i
  in
  let literal_at i =
    if i < n && src.[i] = '"' then
      Option.map (fun j -> String.sub src (i + 1) (j - i - 1)) (String.index_from_opt src (i + 1) '"')
    else None
  in
  let rec scan i acc =
    match String.index_from_opt src i 'M' with
    | None -> acc
    | Some i ->
        let registration =
          List.find_map
            (fun kind ->
              let call = "Metrics." ^ kind in
              let m = String.length call in
              if i + m <= n && String.sub src i m = call then
                literal_at (skip_blanks (i + m))
              else None)
            [ "counter"; "gauge"; "timer"; "histogram" ]
        in
        scan (i + 1) (match registration with Some name -> name :: acc | None -> acc)
  in
  scan 0 []

(* Every metric a production module registers has a row in the table of
   docs/OBSERVABILITY.md. *)
let test_names_documented () =
  let doc = read_file "../docs/OBSERVABILITY.md" in
  let names =
    List.concat_map ml_files [ "../lib"; "../bin"; "../bench" ]
    |> List.concat_map (fun path -> registered_names (read_file path))
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool) "found the registrations" true (List.length names > 50);
  let row name =
    let cell = "| `" ^ name ^ "` |" in
    let m = String.length cell in
    let rec at i = i + m <= String.length doc && (String.sub doc i m = cell || at (i + 1)) in
    at 0
  in
  Alcotest.(check (list string)) "undocumented metric names" []
    (List.filter (fun name -> not (row name)) names)

(* The names an interface declares at its top level: values, types and
   their constructors and fields, exceptions and submodules. *)
let declared_names mli =
  let type_names (d : Parsetree.type_declaration) =
    d.ptype_name.txt
    ::
    (match d.ptype_kind with
    | Ptype_variant cs -> List.map (fun (c : Parsetree.constructor_declaration) -> c.pcd_name.txt) cs
    | Ptype_record ls -> List.map (fun (l : Parsetree.label_declaration) -> l.pld_name.txt) ls
    | Ptype_abstract | Ptype_open -> [])
  in
  Parse.interface (Lexing.from_string (read_file mli))
  |> List.concat_map (fun (item : Parsetree.signature_item) ->
         match item.psig_desc with
         | Psig_value v -> [ v.pval_name.txt ]
         | Psig_type (_, ds) | Psig_typesubst ds -> List.concat_map type_names ds
         | Psig_exception e -> [ e.ptyexn_constructor.pext_name.txt ]
         | Psig_module m -> Option.to_list m.pmd_name.txt
         | Psig_modtype t -> [ t.pmtd_name.txt ]
         | _ -> [])

(* The text of [doc]'s code spans, fenced blocks left out. *)
let code_spans doc =
  let prose, _ =
    List.fold_left
      (fun (acc, fenced) line ->
        if String.starts_with ~prefix:"```" (String.trim line) then (acc, not fenced)
        else if fenced then (acc, fenced)
        else (line :: acc, fenced))
      ([], false) (String.split_on_char '\n' doc)
  in
  String.concat "\n" (List.rev prose)
  |> String.split_on_char '`'
  |> List.filteri (fun i _ -> i mod 2 = 1)

(* The first two parts of each dotted path in [span]: ["Oracle.Session.add"]
   gives [("Oracle", "Session")]. *)
let path_heads span =
  let is_path_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' | '.' -> true
    | _ -> false
  in
  let n = String.length span in
  let rec scan i acc =
    if i >= n then acc
    else if not (is_path_char span.[i]) then scan (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && is_path_char span.[!j] do incr j done;
      let acc =
        match String.split_on_char '.' (String.sub span i (!j - i)) with
        | m :: x :: _ when x <> "" -> (m, x) :: acc
        | _ -> acc
      in
      scan !j acc
    end
  in
  scan 0 []

(* A backticked [Module.name] in docs/, where [Module] is a lib/ module,
   names something that module's interface declares. *)
let test_doc_names_exported () =
  let interfaces = Hashtbl.create 64 in
  Array.iter
    (fun dir ->
      let dir = Filename.concat "../lib" dir in
      if Sys.is_directory dir then
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".mli" then
              Hashtbl.replace interfaces
                (String.capitalize_ascii (Filename.chop_suffix f ".mli"))
                (declared_names (Filename.concat dir f)))
          (Sys.readdir dir))
    (Sys.readdir "../lib");
  let checked = ref 0 in
  let misses =
    Sys.readdir "../docs" |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.concat_map (fun f ->
           code_spans (read_file (Filename.concat "../docs" f))
           |> List.concat_map path_heads
           |> List.filter_map (fun (m, x) ->
                  match Hashtbl.find_opt interfaces m with
                  | None -> None
                  | Some names ->
                      incr checked;
                      if List.mem x names then None else Some (f ^ ": " ^ m ^ "." ^ x)))
  in
  Alcotest.(check bool) "found the references" true (!checked > 100);
  Alcotest.(check (list string)) "doc names that are not exports" [] misses

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
    Alcotest.test_case "gauge peak" `Quick test_gauge_peak;
    Alcotest.test_case "timer accumulates" `Quick test_timer_accumulates;
    Alcotest.test_case "timer on exception" `Quick test_timer_records_on_exception;
    Alcotest.test_case "instrumented maxflow" `Quick test_instrumented_maxflow_counts;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram extremes" `Quick test_histogram_extremes;
    Alcotest.test_case "snapshot sorted, reset keeps cells" `Quick
      test_snapshot_sorted_and_reset;
    Alcotest.test_case "json snapshot golden" `Quick test_json_snapshot_golden;
    Alcotest.test_case "json sample roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json print/parse roundtrip" `Quick
      test_json_print_parse_roundtrip;
    Alcotest.test_case "every metric name documented" `Quick test_names_documented;
    Alcotest.test_case "doc names are exports" `Quick test_doc_names_exported;
  ]
