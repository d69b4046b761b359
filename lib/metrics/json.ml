type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Syntax of string

let syntax_error pos msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg pos))

(* --- emission --- *)

let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else begin
    (* Shortest representation that parses back to the same double.  The
       serving protocol relies on this: a cached ω* must survive the wire
       bit-identically, and %.12g alone drops up to 5 significant bits. *)
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  end

let to_buffer ?(compact = false) buf v =
  let pad n = if not compact then Buffer.add_string buf (String.make n ' ') in
  let nl () = if not compact then Buffer.add_char buf '\n' in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> write_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (2 * (depth + 1));
            go (depth + 1) item)
          items;
        nl ();
        pad (2 * depth);
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (2 * (depth + 1));
            write_string buf k;
            Buffer.add_char buf ':';
            if not compact then Buffer.add_char buf ' ';
            go (depth + 1) item)
          fields;
        nl ();
        pad (2 * depth);
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?compact v =
  let buf = Buffer.create 1024 in
  to_buffer ?compact buf v;
  Buffer.contents buf

(* --- parsing: plain recursive descent, errors as Result --- *)

let hex_digit s i =
  match s.[i] with
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> syntax_error i "bad \\u escape"

(* UTF-8 encoding of a BMP code point (surrogates unsupported). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The closing quote of a string without escapes, or -1 at the first
   backslash. *)
let rec plain_end s i =
  if i >= String.length s then syntax_error i "unterminated string"
  else match s.[i] with '"' -> i | '\\' -> -1 | _ -> plain_end s (i + 1)

let read_string s pos =
  let n = String.length s in
  if pos >= n || not (Char.equal s.[pos] '"') then syntax_error pos "expected '\"'";
  (* Most strings hold no escape: find the closing quote and copy once. *)
  let close = plain_end s (pos + 1) in
  if close >= 0 then (String.sub s (pos + 1) (close - pos - 1), close + 1)
  else begin
    let buf = Buffer.create 16 in
    let rec loop i =
      if i >= n then syntax_error i "unterminated string"
      else
        match s.[i] with
        | '"' -> i + 1
        | '\\' ->
            if i + 1 >= n then syntax_error (i + 1) "unterminated escape";
            let simple c =
              Buffer.add_char buf c;
              loop (i + 2)
            in
            (match s.[i + 1] with
            | '"' -> simple '"'
            | '\\' -> simple '\\'
            | '/' -> simple '/'
            | 'b' -> simple '\b'
            | 'f' -> simple '\012'
            | 'n' -> simple '\n'
            | 'r' -> simple '\r'
            | 't' -> simple '\t'
            | 'u' ->
                if i + 6 > n then syntax_error (i + 2) "truncated \\u escape";
                add_utf8 buf
                  ((hex_digit s (i + 2) lsl 12)
                  lor (hex_digit s (i + 3) lsl 8)
                  lor (hex_digit s (i + 4) lsl 4)
                  lor hex_digit s (i + 5));
                loop (i + 6)
            | _ -> syntax_error (i + 2) "unknown escape")
        | c ->
            Buffer.add_char buf c;
            loop (i + 1)
    in
    let next = loop (pos + 1) in
    (Buffer.contents buf, next)
  end

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let read_number s pos =
  let n = String.length s in
  let stop = ref pos in
  while !stop < n && is_number_char s.[!stop] do
    incr stop
  done;
  let text = String.sub s pos (!stop - pos) in
  let bad () = syntax_error pos "bad number" in
  let v =
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text then
      match float_of_string_opt text with Some f -> Float f | None -> bad ()
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with Some f -> Float f | None -> bad ())
  in
  (v, !stop)

let read_float s pos =
  match read_number s pos with
  | Int i, stop -> (float_of_int i, stop)
  | Float f, stop -> (f, stop)
  | (Null | Bool _ | String _ | List _ | Obj _), _ -> assert false

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = syntax_error !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    let v, next = read_string s !pos in
    pos := next;
    v
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some _ ->
        let v, next = read_number s !pos in
        pos := next;
        v
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Syntax msg -> Error msg

(* --- accessors --- *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt v =
  match v with
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt v = match v with Int i -> Some i | _ -> None
let to_string_opt v = match v with String s -> Some s | _ -> None
let to_bool_opt v = match v with Bool b -> Some b | _ -> None
let to_list_opt v = match v with List l -> Some l | _ -> None
let to_obj_opt v = match v with Obj o -> Some o | _ -> None
