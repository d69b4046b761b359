(* Builds one trajectory point, bench/trajectory/BENCH_pr<N>.json: the
   quick suite's report plus one [e2e/<workload>] scenario per
   benchmark/ workload.  Run by record.sh:

     point.exe REVISION QUICK.json DIR OUT.json

   QUICK.json is [bench/main.exe --quick --json] of the revision
   measured; DIR holds, per workload W, [W.trace0] and [W.trace1]: the
   result lines (last stdout line) of [benchmark/run.sh --workload W]
   untraced and traced, one line per run.  An e2e scenario's samples are
   gauges whose value and peak are the median over a file's runs: the
   untraced runs' end-to-end metrics and the traced runs' per-layer
   metrics, leaving out those that read 0 (a layer the workload does
   not run); and two counters, the untraced runs' [attempted] and
   [failed] operations summed.  Its [wall_ms] is 0: the numbers are
   records, and only the quick scenarios' counters gate. *)

let workloads = [ "serve-hot"; "serve-cold"; "stream-churn"; "fleet-50k" ]

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("point: " ^ m);
      exit 2)
    fmt

let read_results path =
  let lines =
    try In_channel.with_open_text path In_channel.input_lines
    with Sys_error e -> fail "%s" e
  in
  match List.filter (fun l -> not (String.equal (String.trim l) "")) lines with
  | [] -> fail "%s: no result line" path
  | runs ->
      List.map
        (fun l ->
          match Json.of_string l with Ok j -> j | Error e -> fail "%s: %s" path e)
        runs

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let record v = Metrics.Level { value = v; peak = v }

let metrics path ~untraced =
  let runs = read_results path in
  let value j name =
    let m = Option.bind (Json.member "metrics" j) (Json.member name) in
    match Option.bind (Option.bind m (Json.member "value")) Json.to_float_opt with
    | Some v -> v
    | None -> fail "%s: no value for metric %S" path name
  in
  let names =
    match Option.bind (Json.member "metrics" (List.hd runs)) Json.to_obj_opt with
    | Some fields -> List.map fst fields
    | None -> fail "%s: no metrics object" path
  in
  List.filter_map
    (fun name ->
      let v = median (List.map (fun j -> value j name) runs) in
      if untraced || v <> 0.0 then Some (name, record v) else None)
    names
  @
  if untraced then
    List.map
      (fun name ->
        let count j =
          match Option.bind (Json.member name j) Json.to_int_opt with
          | Some n -> n
          | None -> fail "%s: no %S count" path name
        in
        (name, Metrics.Count (List.fold_left (fun acc j -> acc + count j) 0 runs)))
      [ "attempted"; "failed" ]
  else []

let () =
  match Sys.argv with
  | [| _; revision; quick; dir; out |] ->
      let report =
        match Bench_report.read_file quick with
        | Ok r -> r
        | Error e -> fail "%s" e
      in
      let e2e w =
        let file suffix = Filename.concat dir (w ^ suffix) in
        {
          Bench_report.name = "e2e/" ^ w;
          wall_ms = 0.0;
          metrics =
            metrics (file ".trace0") ~untraced:true
            @ metrics (file ".trace1") ~untraced:false;
        }
      in
      Bench_report.write_file out
        (Bench_report.make ~revision ~quick:true
           (report.Bench_report.scenarios @ List.map e2e workloads))
  | _ -> fail "usage: point.exe REVISION QUICK.json DIR OUT.json"
