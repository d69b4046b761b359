let to_string w =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# workload: %s\n# jobs: %d, dim: %d\n" w.Workload.name
       (Array.length w.Workload.jobs)
       w.Workload.dim);
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (String.concat " " (Array.to_list (Array.map string_of_int p)));
      Buffer.add_char buf '\n')
    w.Workload.jobs;
  Buffer.contents buf

let to_channel oc w = output_string oc (to_string w)

let parse_lines ?(name = "workload") lines =
  let jobs = ref [] in
  let dim = ref 0 in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let fields =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
        in
        let coords =
          List.map
            (fun f ->
              match int_of_string_opt f with
              | Some v -> v
              | None ->
                  failwith
                    (Printf.sprintf "line %d: %S is not an integer" (lineno + 1) f))
            fields
        in
        match coords with
        | [] -> failwith (Printf.sprintf "line %d: empty coordinate list" (lineno + 1))
        | _ ->
            let d = List.length coords in
            if !dim = 0 then dim := d
            else if !dim <> d then
              failwith
                (Printf.sprintf "line %d: dimension %d, expected %d" (lineno + 1) d !dim);
            jobs := Array.of_list coords :: !jobs
      end)
    lines;
  let dim = if !dim = 0 then 2 else !dim in
  { Workload.name; dim; jobs = Array.of_list (List.rev !jobs) }

let of_string ?name s = parse_lines ?name (String.split_on_char '\n' s)

let of_channel ?name ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  parse_lines ?name (List.rev !lines)

let max_heatmap_cells = 1_000_000

let heatmap w =
  if w.Workload.dim <> 2 then invalid_arg "Workload_io.heatmap: need a 2-D workload";
  let dm = Workload.demand w in
  match Demand_map.bounding_box dm with
  | None -> "(empty workload)\n"
  | Some box ->
      let cells = Box.volume box in
      if cells > max_heatmap_cells then
        invalid_arg
          (Printf.sprintf "Workload_io.heatmap: a %d x %d canvas exceeds %d cells"
             (Box.side box 0) (Box.side box 1) max_heatmap_cells);
      let max_d = Demand_map.max_demand dm in
      Render.grid box ~cell:(fun p -> Render.heat_char ~max:max_d (Demand_map.value dm p))
      ^ Printf.sprintf "(%s)\n" (Render.legend ~max:max_d)
