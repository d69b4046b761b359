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
  digest : int;
}

type answer =
  | Value of float
  | Tight_set of (Point.t list * float) option
  | Pong

type encoded = string

type response = {
  r_id : int;
  r_cached : bool;
  r_result : (answer, string) result;
  r_encoded : encoded option;
}

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

(* [row_digest] with the dimension already folded into [seed], which is
   the same for every row of a demand. *)
let seeded_row_digest seed p v =
  let h = ref seed in
  for i = 0 to Array.length p - 1 do
    h := Fnv.add_int !h p.(i)
  done;
  Fnv.add_int !h v

let row_seed dim = Fnv.add_int Fnv.basis dim
let row_digest ~dim p v = seeded_row_digest (row_seed dim) p v

let digest_of_rowsum ~dim ~rowsum ~support =
  Fnv.add_int (Fnv.add_int (Fnv.add_int Fnv.basis dim) (rowsum land max_int)) support

let rowsum_update ~dim ~rowsum p ~before ~after =
  let s = ref rowsum in
  if before > 0 then s := (!s - row_digest ~dim p before) land max_int;
  if after > 0 then s := (!s + row_digest ~dim p after) land max_int;
  !s

let demand_digest dm =
  let dim = Demand_map.dim dm in
  let seed = row_seed dim in
  let rowsum =
    Demand_map.fold dm ~init:0 ~f:(fun acc p v ->
        (acc + seeded_row_digest seed p v) land max_int)
  in
  digest_of_rowsum ~dim ~rowsum ~support:(Demand_map.support_size dm)

let request ?session ~id op demand =
  { id; op; demand; session; digest = demand_digest demand }

(* --- encoding: compact JSON written straight into a buffer --- *)

let op_name = function
  | Omega_star -> "omega_star"
  | Lp_value _ -> "lp_value"
  | Witness -> "witness"
  | Ping -> "ping"
  | Shutdown -> "shutdown"
  | Session_add _ -> "session_add"
  | Session_remove _ -> "session_remove"
  | Session_query -> "session_query"

(* Decimal digits of [m <= 0], most significant first: on the
   non-positive side [min_int] has a magnitude too. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_point buf p =
  Buffer.add_char buf '[';
  for i = 0 to Array.length p - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_int buf p.(i)
  done;
  Buffer.add_char buf ']'

let request_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"id\":";
  add_int buf r.id;
  Buffer.add_string buf ",\"op\":";
  Json.write_string buf (op_name r.op);
  Buffer.add_string buf ",\"dim\":";
  add_int buf (Demand_map.dim r.demand);
  Buffer.add_string buf ",\"demand\":[";
  let first = ref true in
  Demand_map.iter r.demand (fun p v ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      for i = 0 to Array.length p - 1 do
        add_int buf p.(i);
        Buffer.add_char buf ','
      done;
      add_int buf v;
      Buffer.add_char buf ']');
  Buffer.add_char buf ']';
  (match r.session with
  | Some name ->
      Buffer.add_string buf ",\"session\":";
      Json.write_string buf name
  | None -> ());
  (match r.op with
  | Lp_value radius ->
      Buffer.add_string buf ",\"radius\":";
      add_int buf radius
  | Session_add p | Session_remove p ->
      Buffer.add_string buf ",\"point\":";
      add_point buf p
  | Omega_star | Witness | Ping | Shutdown | Session_query -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let write_answer buf = function
  | Value v ->
      Buffer.add_string buf "\"value\":";
      Buffer.add_string buf (Json.float_repr v)
  | Tight_set None -> Buffer.add_string buf "\"witness\":null"
  | Tight_set (Some (points, omega)) ->
      Buffer.add_string buf "\"witness\":{\"points\":[";
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char buf ',';
          add_point buf p)
        points;
      Buffer.add_string buf "],\"omega\":";
      Buffer.add_string buf (Json.float_repr omega);
      Buffer.add_char buf '}'
  | Pong -> Buffer.add_string buf "\"pong\":true"

let encode_answer a =
  let buf = Buffer.create 32 in
  write_answer buf a;
  Buffer.contents buf

let response_to_string r =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "{\"id\":";
  add_int buf r.r_id;
  (match r.r_result with
  | Ok answer -> (
      Buffer.add_string buf
        (if r.r_cached then ",\"ok\":true,\"cached\":true,"
         else ",\"ok\":true,\"cached\":false,");
      match r.r_encoded with
      | Some text -> Buffer.add_string buf text
      | None -> write_answer buf answer)
  | Error e ->
      Buffer.add_string buf ",\"ok\":false,\"error\":";
      Json.write_string buf e);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- decoding: one pass over the payload, no tree --- *)

(* The grammar is [Json.of_string]'s, read in place: whitespace anywhere
   between tokens, strings through [Json.read_string], numbers as
   [Json.read_float] delimits them.  Each document is an object whose
   members may come in any order; a member this decoder does not know is
   skipped after its syntax is checked, and a known member that repeats
   or holds the wrong type is an error. *)

exception Reject of string

type cursor = {
  s : string;
  mutable at : int;  (** offset of the next byte to read *)
  mutable cells : int array;  (** scratch for the integer array being read *)
}

let reject c msg = raise (Reject (Printf.sprintf "%s at offset %d" msg c.at))
let fail msg = raise (Reject msg)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws c =
  let n = String.length c.s in
  while c.at < n && is_ws c.s.[c.at] do
    c.at <- c.at + 1
  done

(* The next byte after whitespace; NUL at the end, which starts no token
   either.  Compact documents have no whitespace, so look before
   skipping. *)
let peek c =
  let s = c.s in
  if c.at < String.length s && not (is_ws s.[c.at]) then s.[c.at]
  else begin
    skip_ws c;
    if c.at < String.length s then s.[c.at] else '\000'
  end

let expect c ch =
  if Char.equal (peek c) ch then c.at <- c.at + 1
  else reject c (Printf.sprintf "expected %C" ch)

let rec matches c word i =
  i = String.length word
  || c.at + i < String.length c.s
     && Char.equal c.s.[c.at + i] word.[i]
     && matches c word (i + 1)

let literal c word =
  if matches c word 0 then c.at <- c.at + String.length word
  else reject c ("expected " ^ word)

let read_bool c =
  match peek c with
  | 't' ->
      literal c "true";
      true
  | 'f' ->
      literal c "false";
      false
  | _ -> reject c "expected true or false"

let read_string c =
  ignore (peek c);
  let v, next = Json.read_string c.s c.at in
  c.at <- next;
  v

let read_float c =
  ignore (peek c);
  let v, next = Json.read_float c.s c.at in
  c.at <- next;
  v

(* [acc * 10 - d] stays at or above [min_int] unless [acc < int_floor],
   or [acc = int_floor] and [d > int_floor_digit]. *)
let int_floor = min_int / 10
let int_floor_digit = -(min_int mod 10)

(* An integer: [[+-]?[0-9]+] within [int] and not followed by another
   number byte — exactly the runs [Json.read_float] reads as an [int].
   Anything else here is an error, whether or not it is a number.
   Digits accumulate on the negative side, where [min_int] fits. *)
let read_int c =
  let s = c.s and n = String.length c.s in
  if c.at < n && is_ws s.[c.at] then skip_ws c;
  let negative = c.at < n && Char.equal s.[c.at] '-' in
  let i = ref c.at in
  if !i < n && (match s.[!i] with '-' | '+' -> true | _ -> false) then incr i;
  let first = !i and acc = ref 0 and fits = ref true in
  while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
    let d = Char.code s.[!i] - 48 in
    if !acc < int_floor || (!acc = int_floor && d > int_floor_digit) then
      fits := false
    else acc := (!acc * 10) - d;
    incr i
  done;
  if
    !i = first || (not !fits)
    || ((not negative) && !acc = min_int)
    || (!i < n && match s.[!i] with '+' | '-' | '.' | 'e' | 'E' -> true | _ -> false)
  then reject c "expected an integer";
  c.at <- !i;
  if negative then !acc else - !acc

(* [[int, ...]] into [c.cells]; the count. *)
let rec read_cells_from c k =
  if k = Array.length c.cells then begin
    let wider = Array.make (2 * k) 0 in
    Array.blit c.cells 0 wider 0 k;
    c.cells <- wider
  end;
  c.cells.(k) <- read_int c;
  match peek c with
  | ',' ->
      c.at <- c.at + 1;
      read_cells_from c (k + 1)
  | ']' ->
      c.at <- c.at + 1;
      k + 1
  | _ -> reject c "expected ',' or ']'"

let read_cells c =
  expect c '[';
  if Char.equal (peek c) ']' then begin
    c.at <- c.at + 1;
    0
  end
  else read_cells_from c 0

(* The first [dim] cells as a fresh point.  [Array.sub] is a C call;
   the literal allocates inline, and dimension 2 is the default. *)
let point_of_cells c dim =
  if dim = 2 then [| c.cells.(0); c.cells.(1) |] else Array.sub c.cells 0 dim

let read_point c = point_of_cells c (read_cells c)

(* [[element, ...]], [element] reading each in turn. *)
let read_array c element =
  expect c '[';
  if Char.equal (peek c) ']' then c.at <- c.at + 1
  else
    let rec elements () =
      element c;
      match peek c with
      | ',' ->
          c.at <- c.at + 1;
          elements ()
      | ']' -> c.at <- c.at + 1
      | _ -> reject c "expected ',' or ']'"
    in
    elements ()

(* [{"member": value, ...}], each member handed to [member] with the
   cursor on its value. *)
let read_object c member =
  expect c '{';
  if Char.equal (peek c) '}' then c.at <- c.at + 1
  else
    let rec members () =
      let key = read_string c in
      expect c ':';
      member key;
      match peek c with
      | ',' ->
          c.at <- c.at + 1;
          members ()
      | '}' -> c.at <- c.at + 1
      | _ -> reject c "expected ',' or '}'"
    in
    members ()

(* Skip the value of a member this decoder does not know, checking its
   syntax.  Iterative, with the closers of the open containers on a byte
   stack, so deep nesting costs no OCaml stack. *)
let skip_value c =
  let closers = Buffer.create 8 in
  let rec value () =
    match peek c with
    | '[' ->
        c.at <- c.at + 1;
        if Char.equal (peek c) ']' then begin
          c.at <- c.at + 1;
          next ()
        end
        else begin
          Buffer.add_char closers ']';
          value ()
        end
    | '{' ->
        c.at <- c.at + 1;
        if Char.equal (peek c) '}' then begin
          c.at <- c.at + 1;
          next ()
        end
        else begin
          Buffer.add_char closers '}';
          key ()
        end
    | '"' ->
        ignore (read_string c);
        next ()
    | 'n' ->
        literal c "null";
        next ()
    | 't' ->
        literal c "true";
        next ()
    | 'f' ->
        literal c "false";
        next ()
    | _ ->
        ignore (read_float c);
        next ()
  and key () =
    ignore (read_string c);
    expect c ':';
    value ()
  and next () =
    let depth = Buffer.length closers in
    if depth > 0 then begin
      let closer = Buffer.nth closers (depth - 1) in
      match peek c with
      | ',' ->
          c.at <- c.at + 1;
          if Char.equal closer '}' then key () else value ()
      | ch when Char.equal ch closer ->
          c.at <- c.at + 1;
          Buffer.truncate closers (depth - 1);
          next ()
      | _ -> reject c (Printf.sprintf "expected ',' or %C" closer)
    end
  in
  value ()

let decode s read =
  let c = { s; at = 0; cells = Array.make 8 0 } in
  match
    let v = read c in
    skip_ws c;
    if c.at <> String.length s then reject c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception (Reject m | Json.Syntax m | Energy.Overflow m) -> Error m

let once c key = function
  | Some _ -> reject c (Printf.sprintf "repeated member %S" key)
  | None -> ()

(* A known member's value; an error inside it names the member. *)
let member_value c key read =
  match read c with
  | v -> v
  | exception Reject m -> fail (Printf.sprintf "member %S: %s" key m)

(* --- requests --- *)

(* The demand rows, in arrival order, zero rows dropped.  Every row has
   the width of the first, whose coordinates fix the dimension; ["dim"],
   which may come later, is checked against it at the end, where
   [Demand_map.of_rows] sums a repeated point (in one pass when the rows
   are sorted, as [request_to_string] writes them) and raises
   [Energy.Overflow] on a total past [max_int].  [rowsum] sums
   [row_digest] over the [n] rows kept: the demand's row sum unless a
   point repeated, which shows as more rows than the demand has points. *)
type rows = {
  dim : int;
  seed : int;  (** [row_seed dim] *)
  mutable points : Point.t array;
  mutable values : int array;
  mutable n : int;
  mutable rowsum : int;
}

let add_row c rows width =
  let dim = rows.dim in
  if width <> dim + 1 then
    reject c (Printf.sprintf "demand row is not a %d-element [coords..., value] array" (dim + 1));
  let v = c.cells.(dim) in
  if v < 0 then reject c "negative demand value";
  if v > 0 then begin
    let p = point_of_cells c dim and n = rows.n in
    if n = Array.length rows.values then begin
      (* doubled: the new half is written over *)
      rows.points <- Array.append rows.points rows.points;
      rows.values <- Array.append rows.values rows.values
    end;
    rows.points.(n) <- p;
    rows.values.(n) <- v;
    rows.n <- n + 1;
    rows.rowsum <- (rows.rowsum + seeded_row_digest rows.seed p v) land max_int
  end

let read_demand c =
  let rows = ref None in
  read_array c (fun c ->
      let width = read_cells c in
      let r =
        match !rows with
        | Some r -> r
        | None ->
            if width < 2 then reject c "demand row without coordinates";
            let dim = width - 1 in
            let points = Array.make 16 [||] and values = Array.make 16 0 in
            let r = { dim; seed = row_seed dim; points; values; n = 0; rowsum = 0 } in
            rows := Some r;
            r
      in
      add_row c r width);
  !rows

type request_members = {
  mutable m_id : int option;
  mutable m_op : string option;
  mutable m_dim : int option;
  mutable m_demand : rows option option;
  mutable m_session : string option;
  mutable m_radius : int option;
  mutable m_point : Point.t option;
}

let request_member c m key =
  match key with
  | "id" ->
      once c key m.m_id;
      m.m_id <- Some (member_value c key read_int)
  | "op" ->
      once c key m.m_op;
      m.m_op <- Some (member_value c key read_string)
  | "dim" ->
      once c key m.m_dim;
      m.m_dim <- Some (member_value c key read_int)
  | "demand" ->
      once c key m.m_demand;
      m.m_demand <- Some (member_value c key read_demand)
  | "session" ->
      once c key m.m_session;
      m.m_session <- Some (member_value c key read_string)
  | "radius" ->
      once c key m.m_radius;
      m.m_radius <- Some (member_value c key read_int)
  | "point" ->
      once c key m.m_point;
      m.m_point <- Some (member_value c key read_point)
  | "scale" -> fail "member \"scale\" is not accepted: the LP grid is fixed"
  | _ -> skip_value c

let request_of_members m =
  let id = match m.m_id with Some id -> id | None -> fail "missing field \"id\"" in
  let name = match m.m_op with Some name -> name | None -> fail "missing field \"op\"" in
  let dim =
    match m.m_dim with
    | None -> 2
    | Some d when d >= 1 -> d
    | Some _ -> fail "\"dim\" must be at least 1"
  in
  let point () =
    match m.m_point with
    | None -> fail (Printf.sprintf "op %S requires a \"point\" array" name)
    | Some p when Array.length p <> dim ->
        fail (Printf.sprintf "\"point\" must have %d coordinates" dim)
    | Some p -> p
  in
  let op =
    match name with
    | "omega_star" -> Omega_star
    | "lp_value" -> (
        match m.m_radius with
        | Some r when r >= 0 -> Lp_value r
        | Some _ -> fail "\"radius\" must be non-negative"
        | None -> fail "op \"lp_value\" requires an integer \"radius\"")
    | "witness" -> Witness
    | "ping" -> Ping
    | "shutdown" -> Shutdown
    | "session_add" -> Session_add (point ())
    | "session_remove" -> Session_remove (point ())
    | "session_query" -> Session_query
    | other -> fail (Printf.sprintf "unknown op %S" other)
  in
  let demand, digest =
    match m.m_demand with
    | None | Some None -> (Demand_map.empty dim, digest_of_rowsum ~dim ~rowsum:0 ~support:0)
    | Some (Some rows) ->
        if rows.dim <> dim then
          fail
            (Printf.sprintf "demand row is not a %d-element [coords..., value] array"
               (dim + 1));
        let demand = Demand_map.of_rows dim rows.points rows.values rows.n in
        let support = Demand_map.support_size demand in
        ( demand,
          if rows.n = support then digest_of_rowsum ~dim ~rowsum:rows.rowsum ~support
          else demand_digest demand )
  in
  { id; op; demand; session = m.m_session; digest }

let request_of_string s =
  decode s (fun c ->
      let m =
        {
          m_id = None;
          m_op = None;
          m_dim = None;
          m_demand = None;
          m_session = None;
          m_radius = None;
          m_point = None;
        }
      in
      read_object c (request_member c m);
      request_of_members m)

(* --- responses --- *)

let read_points c =
  let points = ref [] in
  read_array c (fun c ->
      let p = read_point c in
      if Array.length p = 0 then reject c "witness point without coordinates";
      points := p :: !points);
  List.rev !points

let read_witness c =
  if Char.equal (peek c) 'n' then begin
    literal c "null";
    None
  end
  else begin
    let points = ref None and omega = ref None in
    read_object c (fun key ->
        match key with
        | "points" ->
            once c key !points;
            points := Some (read_points c)
        | "omega" ->
            once c key !omega;
            omega := Some (read_float c)
        | _ -> skip_value c);
    match (!points, !omega) with
    | Some points, Some omega -> Some (points, omega)
    | None, _ -> fail "witness without \"points\""
    | _, None -> fail "witness without \"omega\""
  end

type response_members = {
  mutable m_rid : int option;
  mutable m_ok : bool option;
  mutable m_cached : bool option;
  mutable m_error : string option;
  mutable m_answer : answer option;
}

let response_member c m key =
  let answer a =
    if Option.is_some m.m_answer then fail "response carries more than one answer";
    m.m_answer <- Some a
  in
  match key with
  | "id" ->
      once c key m.m_rid;
      m.m_rid <- Some (member_value c key read_int)
  | "ok" ->
      once c key m.m_ok;
      m.m_ok <- Some (member_value c key read_bool)
  | "cached" ->
      once c key m.m_cached;
      m.m_cached <- Some (member_value c key read_bool)
  | "error" ->
      once c key m.m_error;
      m.m_error <- Some (member_value c key read_string)
  | "value" -> answer (Value (member_value c key read_float))
  | "witness" -> answer (Tight_set (member_value c key read_witness))
  | "pong" -> if member_value c key read_bool then answer Pong else fail "\"pong\" is not true"
  | _ -> skip_value c

let response_of_members m =
  let r_id = match m.m_rid with Some id -> id | None -> fail "missing field \"id\"" in
  match m.m_ok with
  | None -> fail "missing field \"ok\""
  | Some false -> (
      match m.m_error with
      | Some e -> { r_id; r_cached = false; r_result = Error e; r_encoded = None }
      | None -> fail "missing field \"error\"")
  | Some true -> (
      match m.m_answer with
      | Some a ->
          {
            r_id;
            r_cached = Option.value m.m_cached ~default:false;
            r_result = Ok a;
            r_encoded = None;
          }
      | None -> fail "response carries no answer field")

let response_of_string s =
  decode s (fun c ->
      let m =
        { m_rid = None; m_ok = None; m_cached = None; m_error = None; m_answer = None }
      in
      read_object c (response_member c m);
      response_of_members m)

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
