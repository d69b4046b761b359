(* cmvrp_lint — static enforcement of the project's domain invariants.

   Usage: cmvrp_lint [--json] [--out FILE] [PATH ...]

   Lints every .ml under the given files/directories (default:
   lib bin bench tools), and the .mli beside each library module.  Human-readable diagnostics go to stdout;
   [--json] switches stdout to the machine-readable report, and
   [--out FILE] additionally writes that report to FILE (CI uploads it
   as an artifact).  Exit codes: 0 clean (advisory diagnostics such as
   unused-waiver do not fail the run), 1 violations found, 2 usage or
   I/O error.  Rules and waiver syntax: docs/LINT.md. *)

let usage () =
  print_string
    "cmvrp_lint [--json] [--out FILE] [PATH ...]\n\
     Checks .ml sources (default scope: lib bin bench tools) against\n\
     the project rules; see docs/LINT.md.  Exit 0 = clean (advisories\n\
     allowed), 1 = violations, 2 = bad invocation.\n"

let () =
  let json = ref false and out = ref None and paths = ref [] in
  let bad m =
    prerr_endline ("cmvrp_lint: " ^ m);
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | "--out" :: file :: rest ->
        out := Some file;
        parse_args rest
    | [ "--out" ] -> bad "--out needs a file argument"
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        bad ("unknown option " ^ arg)
    | path :: rest ->
        paths := path :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths =
    match List.rev !paths with
    | [] -> [ "lib"; "bin"; "bench"; "tools" ]
    | ps -> ps
  in
  match Lint_rules.run paths with
  | exception Invalid_argument m -> bad m
  | exception Sys_error m -> bad m
  | checked_files, diags ->
      let report = Lint_rules.json_report ~checked_files diags in
      (match !out with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          output_string oc (Json.to_string report);
          output_char oc '\n';
          close_out oc);
      let blocking =
        List.filter (fun d -> not d.Lint_rules.advisory) diags
      in
      if !json then print_endline (Json.to_string report)
      else begin
        List.iter
          (fun d -> Format.printf "%a@." Lint_rules.pp_diagnostic d)
          diags;
        Format.printf
          "cmvrp_lint: %d file%s checked, %d violation%s, %d advisor%s@."
          checked_files
          (if checked_files = 1 then "" else "s")
          (List.length blocking)
          (if List.length blocking = 1 then "" else "s")
          (List.length diags - List.length blocking)
          (if List.length diags - List.length blocking = 1 then "y" else "ies")
      end;
      match blocking with [] -> exit 0 | _ -> exit 1
