type op =
  | Omega_star
  | Lp_value of int
  | Witness
  | Ping
  | Shutdown
  | Session_add of Point.t
  | Session_remove of Point.t
  | Session_query

type request = {
  id : int;
  op : op;
  demand : Demand_map.t;
  session : string option;
}

type answer =
  | Value of float
  | Tight_set of (Point.t list * float) option
  | Pong

type response = { r_id : int; r_cached : bool; r_result : (answer, string) result }

let request ?session ~id op demand = { id; op; demand; session }

(* --- canonical digest --- *)

(* A commutative construction: each (coords, value) row hashes through
   FNV independently (seeded by the dimension), and the rows combine by
   wrapping integer addition.  Permutation invariance is then algebraic
   rather than an artifact of map iteration order — and, because wrapping
   addition forms a group, a streaming session can maintain the row sum
   in O(1) per mutation ({!rowsum_update}) and close it into the exact
   digest a from-scratch {!demand_digest} of the same demand produces.
   The digest is a bucket index, not a proof: {!Qcache} re-verifies
   structurally, so the weaker-than-FNV mixing of the sum only ever
   costs a miss. *)

let row_digest ~dim p v =
  let h = ref (Fnv.add_int Fnv.basis dim) in
  Array.iter (fun c -> h := Fnv.add_int !h c) p;
  Fnv.add_int !h v

let digest_of_rowsum ~dim ~rowsum ~support =
  Fnv.add_int (Fnv.add_int (Fnv.add_int Fnv.basis dim) (rowsum land max_int)) support

let rowsum_update ~dim ~rowsum p ~before ~after =
  let s = ref rowsum in
  if before > 0 then s := (!s - row_digest ~dim p before) land max_int;
  if after > 0 then s := (!s + row_digest ~dim p after) land max_int;
  !s

let demand_digest dm =
  let dim = Demand_map.dim dm in
  let rowsum =
    Demand_map.fold dm ~init:0 ~f:(fun acc p v ->
        (acc + row_digest ~dim p v) land max_int)
  in
  digest_of_rowsum ~dim ~rowsum ~support:(Demand_map.support_size dm)

(* --- JSON codec --- *)

let op_name = function
  | Omega_star -> "omega_star"
  | Lp_value _ -> "lp_value"
  | Witness -> "witness"
  | Ping -> "ping"
  | Shutdown -> "shutdown"
  | Session_add _ -> "session_add"
  | Session_remove _ -> "session_remove"
  | Session_query -> "session_query"

let json_of_point p = Json.List (Array.to_list (Array.map (fun c -> Json.Int c) p))

let json_of_demand dm =
  Json.List
    (List.rev
       (Demand_map.fold dm ~init:[] ~f:(fun acc p v ->
            Json.List
              (Array.to_list (Array.map (fun c -> Json.Int c) p) @ [ Json.Int v ])
            :: acc)))

let request_to_json r =
  let base =
    [
      ("id", Json.Int r.id);
      ("op", Json.String (op_name r.op));
      ("dim", Json.Int (Demand_map.dim r.demand));
      ("demand", json_of_demand r.demand);
    ]
  in
  let base =
    match r.session with
    | Some name -> base @ [ ("session", Json.String name) ]
    | None -> base
  in
  match r.op with
  | Lp_value radius -> Json.Obj (base @ [ ("radius", Json.Int radius) ])
  | Session_add p | Session_remove p ->
      Json.Obj (base @ [ ("point", json_of_point p) ])
  | _ -> Json.Obj base

let request_to_string r = Json.to_string ~compact:true (request_to_json r)

let ( let* ) = Result.bind

let field name project j =
  match Option.bind (Json.member name j) project with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let demand_of_json ~dim j =
  match Json.to_list_opt j with
  | None -> Error "\"demand\" is not an array"
  | Some rows ->
      List.fold_left
        (fun acc row ->
          let* dm = acc in
          match Json.to_list_opt row with
          | Some cells when List.length cells = dim + 1 -> (
              let ints = List.filter_map Json.to_int_opt cells in
              if List.length ints <> dim + 1 then
                Error "demand row with a non-integer cell"
              else
                match List.rev ints with
                | v :: coords_rev ->
                    if v < 0 then Error "negative demand value"
                    else Ok (Demand_map.add dm (Array.of_list (List.rev coords_rev)) v)
                | [] -> Error "empty demand row")
          | _ ->
              Error
                (Printf.sprintf
                   "demand row is not a %d-element [coords..., value] array"
                   (dim + 1)))
        (Ok (Demand_map.empty dim))
        rows

let request_of_json j =
  let* id = field "id" Json.to_int_opt j in
  let* name = field "op" Json.to_string_opt j in
  if Option.is_some (Json.member "scale" j) then
    Error "member \"scale\" is not accepted: the LP grid is fixed"
  else
    let* dim =
      match Option.bind (Json.member "dim" j) Json.to_int_opt with
      | Some d when d >= 1 -> Ok d
      | Some _ -> Error "\"dim\" must be at least 1"
      | None -> Ok 2
    in
    let point_of_member () =
      match Option.bind (Json.member "point" j) Json.to_list_opt with
      | None -> Error (Printf.sprintf "op %S requires a \"point\" array" name)
      | Some cells ->
          let coords = List.filter_map Json.to_int_opt cells in
          if List.length coords <> List.length cells then
            Error "\"point\" with a non-integer coordinate"
          else if List.length coords <> dim then
            Error (Printf.sprintf "\"point\" must have %d coordinates" dim)
          else Ok (Array.of_list coords)
    in
    let* op =
      match name with
      | "omega_star" -> Ok Omega_star
      | "lp_value" -> (
          match Option.bind (Json.member "radius" j) Json.to_int_opt with
          | Some r when r >= 0 -> Ok (Lp_value r)
          | Some _ -> Error "\"radius\" must be non-negative"
          | None -> Error "op \"lp_value\" requires an integer \"radius\"")
      | "witness" -> Ok Witness
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | "session_add" ->
          let* p = point_of_member () in
          Ok (Session_add p)
      | "session_remove" ->
          let* p = point_of_member () in
          Ok (Session_remove p)
      | "session_query" -> Ok Session_query
      | other -> Error (Printf.sprintf "unknown op %S" other)
    in
    let session = Option.bind (Json.member "session" j) Json.to_string_opt in
    let* demand =
      match Json.member "demand" j with
      | None -> Ok (Demand_map.empty dim)
      | Some dj -> demand_of_json ~dim dj
    in
    Ok { id; op; demand; session }

let request_of_string s =
  let* j = Json.of_string s in
  request_of_json j

let answer_to_json = function
  | Value v -> [ ("value", Json.Float v) ]
  | Tight_set None -> [ ("witness", Json.Null) ]
  | Tight_set (Some (points, omega)) ->
      [
        ( "witness",
          Json.Obj
            [
              ("points", Json.List (List.map json_of_point points));
              ("omega", Json.Float omega);
            ] );
      ]
  | Pong -> [ ("pong", Json.Bool true) ]

let response_to_json r =
  match r.r_result with
  | Ok answer ->
      Json.Obj
        ([
           ("id", Json.Int r.r_id);
           ("ok", Json.Bool true);
           ("cached", Json.Bool r.r_cached);
         ]
        @ answer_to_json answer)
  | Error e ->
      Json.Obj
        [
          ("id", Json.Int r.r_id);
          ("ok", Json.Bool false);
          ("error", Json.String e);
        ]

let response_to_string r = Json.to_string ~compact:true (response_to_json r)

let response_of_json j =
  let* r_id = field "id" Json.to_int_opt j in
  let* ok = field "ok" Json.to_bool_opt j in
  if not ok then
    let* e = field "error" Json.to_string_opt j in
    Ok { r_id; r_cached = false; r_result = Error e }
  else
    let r_cached =
      Option.value ~default:false
        (Option.bind (Json.member "cached" j) Json.to_bool_opt)
    in
    let* answer =
      match (Json.member "value" j, Json.member "witness" j, Json.member "pong" j) with
      | Some v, _, _ -> (
          match Json.to_float_opt v with
          | Some f -> Ok (Value f)
          | None -> Error "\"value\" is not a number")
      | None, Some Json.Null, _ -> Ok (Tight_set None)
      | None, Some w, _ ->
          let* points = field "points" Json.to_list_opt w in
          let* omega = field "omega" Json.to_float_opt w in
          let* points =
            List.fold_left
              (fun acc pj ->
                let* acc = acc in
                match Json.to_list_opt pj with
                | Some cells -> (
                    let coords = List.filter_map Json.to_int_opt cells in
                    if List.length coords = List.length cells && coords <> [] then
                      Ok (Array.of_list coords :: acc)
                    else Error "witness point with a non-integer coordinate")
                | None -> Error "witness point is not an array")
              (Ok []) points
          in
          Ok (Tight_set (Some (List.rev points, omega)))
      | None, None, Some p -> (
          match Json.to_bool_opt p with
          | Some true -> Ok Pong
          | _ -> Error "\"pong\" is not true")
      | None, None, None -> Error "response carries no answer field"
    in
    Ok { r_id; r_cached; r_result = Ok answer }

let response_of_string s =
  let* j = Json.of_string s in
  response_of_json j

let answer_equal a b =
  match (a, b) with
  | Value x, Value y -> Float.equal x y
  | Tight_set None, Tight_set None -> true
  | Tight_set (Some (ps, x)), Tight_set (Some (qs, y)) ->
      Float.equal x y
      && List.length ps = List.length qs
      && List.for_all2 Point.equal ps qs
  | Pong, Pong -> true
  | _ -> false
