(* The benchmark's entry point: runs one workload and prints its metrics as one JSON
   line (the last line of stdout).

     run.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
   pass instead, prints the per-layer metrics and writes a Chrome trace
   to benchmark/_out/.  Exits 1 when any operation failed or an output
   check did not hold, 2 on a usage error or a run that could not finish.
   See README.md. *)

open Cmvrp_benchmark

let usage () =
  prerr_endline
    ("usage: run.exe --workload {" ^ String.concat "|" Report.workloads
   ^ "} [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let out_dir = Filename.concat "benchmark" "_out"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Report.workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest when Option.is_some (int_of_string_opt n) ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := String.equal t "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  (* Killed or interrupted: exit through at_exit, which stops the daemon. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Pool.set_workers 1;
  Probe.pin_to_last_cpu ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_path =
    if !trace then
      Some (Filename.concat out_dir ("trace-" ^ workload ^ ".json"))
    else None
  in
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "cmvrp_serve.exe")
  in
  let seed = !seed and seconds = !seconds in
  let outcome =
    match workload with
    | "serve-hot" -> Serve_load.run ~exe ~dir:out_dir ~trace_path Serve_load.Hot ~seed ~seconds
    | "serve-cold" -> Serve_load.run ~exe ~dir:out_dir ~trace_path Serve_load.Cold ~seed ~seconds
    | "stream-churn" -> Stream_load.run ~trace_path ~seed ~seconds ()
    | _ -> Fleet_load.run ~trace_path ~seed ~seconds ()
  in
  List.iter (Printf.eprintf "missing counter: %s\n") outcome.Report.missing;
  let correct = outcome.Report.failed = 0 in
  print_endline (Report.json_line ~correct ~trace:!trace outcome);
  exit (if correct then 0 else 1)
