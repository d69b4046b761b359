(* Workload serialization and ASCII rendering. *)

let point2 x y = [| x; y |]

let test_roundtrip () =
  let rng = Rng.create 21 in
  let box = Box.make ~lo:(point2 (-3) (-3)) ~hi:(point2 5 5) in
  let w = Workload.uniform ~rng ~box ~jobs:40 in
  let back = Workload_io.of_string (Workload_io.to_string w) in
  Alcotest.(check int) "same dim" w.Workload.dim back.Workload.dim;
  Alcotest.(check int) "same job count"
    (Array.length w.Workload.jobs)
    (Array.length back.Workload.jobs);
  Alcotest.(check bool) "same jobs in order" true
    (Array.for_all2 Point.equal w.Workload.jobs back.Workload.jobs)

let test_roundtrip_1d_and_3d () =
  List.iter
    (fun dim ->
      let w =
        {
          Workload.name = "nd";
          dim;
          jobs = Array.init 10 (fun i -> Array.make dim i);
        }
      in
      let back = Workload_io.of_string (Workload_io.to_string w) in
      Alcotest.(check int) "dim preserved" dim back.Workload.dim;
      Alcotest.(check bool) "jobs preserved" true
        (Array.for_all2 Point.equal w.Workload.jobs back.Workload.jobs))
    [ 1; 3 ]

let test_comments_and_blanks_ignored () =
  let w = Workload_io.of_string "# header\n\n1 2\n\n# mid comment\n3 4\n" in
  Alcotest.(check int) "two jobs" 2 (Array.length w.Workload.jobs);
  Alcotest.(check bool) "first job" true (Point.equal w.Workload.jobs.(0) (point2 1 2))

let test_rejects_garbage () =
  Alcotest.(check bool) "non-integer" true
    (try
       ignore (Workload_io.of_string "1 x\n");
       false
     with Failure msg -> String.length msg > 0);
  Alcotest.(check bool) "mixed dimension" true
    (try
       ignore (Workload_io.of_string "1 2\n1 2 3\n");
       false
     with Failure _ -> true)

let test_empty_input_defaults () =
  let w = Workload_io.of_string "# nothing\n" in
  Alcotest.(check int) "no jobs" 0 (Array.length w.Workload.jobs);
  Alcotest.(check int) "default dim 2" 2 w.Workload.dim

let test_render_grid_shape () =
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 3 1) in
  let art = Render.grid box ~cell:(fun p -> if p.(0) = p.(1) then 'X' else '.') in
  (* Two rows of four characters each. *)
  Alcotest.(check (list string)) "rows" [ ".X.."; "X..." ]
    (String.split_on_char '\n' (String.trim art))

let test_render_orientation () =
  (* Highest y prints first. *)
  let box = Box.make ~lo:(point2 0 0) ~hi:(point2 0 2) in
  let art = Render.grid box ~cell:(fun p -> Char.chr (Char.code '0' + p.(1))) in
  Alcotest.(check string) "top down" "2\n1\n0\n" art

let test_heat_char_monotone () =
  let chars = List.map (Render.heat_char ~max:100) [ 0; 1; 25; 50; 75; 100 ] in
  Alcotest.(check bool) "zero is blank" true (List.hd chars = ' ');
  let ramp = " .:-=+*#%@" in
  let idx c = String.index ramp c in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> idx a <= idx b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone ramp" true (non_decreasing chars)

let test_heatmap_runs () =
  let w = Workload.square ~side:3 ~per_point:4 () in
  let art = Workload_io.heatmap w in
  Alcotest.(check bool) "non-empty" true (String.length art > 10)

(* A coordinate whose bounding box's volume overflows an int is bad input:
   [cmvrp] names the overflow and exits 2 (it used to die with an uncaught
   [Energy.Overflow], exit 125). *)
let cli_exe = Filename.concat ".." (Filename.concat "bin" "cmvrp_cli.exe")

let test_cli_overflow_exits_2 () =
  let input = Filename.temp_file "cmvrp_huge" ".txt" in
  let err = Filename.temp_file "cmvrp_huge" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove err)
    (fun () ->
      Out_channel.with_open_text input (fun oc ->
          output_string oc "0 0\n1 0\n2 0\n3 2305843009213693953\n");
      List.iter
        (fun args ->
          let name = List.hd args in
          let status =
            Sys.command
              (Filename.quote_command cli_exe ~stdout:Filename.null ~stderr:err
                 (args @ [ "--input"; input ]))
          in
          Alcotest.(check int) (name ^ " exit status") 2 status;
          let message = In_channel.with_open_text err In_channel.input_all in
          Alcotest.(check bool)
            (name ^ " names the overflow: " ^ message)
            true
            (String.starts_with ~prefix:"cmvrp: Energy.mul" message))
        [ [ "solve" ]; [ "simulate" ]; [ "fleet"; "--capacity"; "3" ] ])

(* [workload --heatmap] draws one character per cell of the bounding box,
   so it refuses a canvas past 10^6 cells, or one whose cell count does not
   fit in an int, at once: exit 2 and a message. *)
let test_cli_heatmap_capped () =
  List.iter
    (fun (name, jobs, prefix) ->
      let input = Filename.temp_file "cmvrp_heat" ".txt" in
      let err = Filename.temp_file "cmvrp_heat" ".err" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove input;
          Sys.remove err)
        (fun () ->
          Out_channel.with_open_text input (fun oc -> output_string oc jobs);
          let status =
            Sys.command
              (Filename.quote_command cli_exe ~stdout:Filename.null ~stderr:err
                 [ "workload"; "--heatmap"; "--input"; input ])
          in
          Alcotest.(check int) (name ^ " exit status") 2 status;
          let message = In_channel.with_open_text err In_channel.input_all in
          Alcotest.(check bool)
            (name ^ " says why: " ^ message)
            true
            (String.starts_with ~prefix message)))
    [
      ("2,000 x 2,000 box", "0 0\n1999 1999\n", "cmvrp: Workload_io.heatmap");
      ("far four points", "0 0\n1 0\n2 0\n3 2305843009213693953\n", "cmvrp: Energy.mul");
    ]

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "roundtrip 1d/3d" `Quick test_roundtrip_1d_and_3d;
    Alcotest.test_case "comments ignored" `Quick test_comments_and_blanks_ignored;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "empty input" `Quick test_empty_input_defaults;
    Alcotest.test_case "render grid shape" `Quick test_render_grid_shape;
    Alcotest.test_case "render orientation" `Quick test_render_orientation;
    Alcotest.test_case "heat char monotone" `Quick test_heat_char_monotone;
    Alcotest.test_case "heatmap runs" `Quick test_heatmap_runs;
    Alcotest.test_case "cli: overflow exits 2" `Quick test_cli_overflow_exits_2;
    Alcotest.test_case "cli: heatmap canvas capped" `Quick test_cli_heatmap_capped;
  ]
