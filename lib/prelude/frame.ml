exception Bad_frame of string

let max_payload = 16 * 1024 * 1024

(* The longest legal header is the decimal width of max_payload plus the
   newline; seeing no newline within that many buffered bytes is already
   a framing error, not a need for more input. *)
let max_header = String.length (string_of_int max_payload) + 1

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_frame m)) fmt

(* ASCII digits only: no sign, base prefix or underscore, which
   [int_of_string] would accept.  The value stops growing once it passes
   [max_payload], so a long header cannot overflow. *)
let length_of_header header =
  if String.length header = 0 then bad "empty frame header";
  let len = ref 0 in
  for i = 0 to String.length header - 1 do
    match header.[i] with
    | '0' .. '9' as c -> if !len <= max_payload then len := (!len * 10) + Char.code c - 48
    | _ -> bad "malformed frame header %S" header
  done;
  if !len > max_payload then bad "frame length %s out of range" header;
  !len

(* The header digits are written by hand into the frame's one buffer:
   the daemon encodes a frame for every response it sends. *)
let encode payload =
  let len = String.length payload in
  if len > max_payload then
    bad "payload of %d bytes exceeds the %d-byte frame cap" len max_payload;
  let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
  let w = width len in
  let b = Bytes.create (w + len + 2) in
  let rec digits n i =
    Bytes.set b i (Char.chr (48 + (n mod 10)));
    if n >= 10 then digits (n / 10) (i - 1)
  in
  digits len (w - 1);
  Bytes.set b w '\n';
  Bytes.blit_string payload 0 b (w + 1) len;
  Bytes.set b (w + len + 1) '\n';
  Bytes.to_string b

(* --- incremental decoding --- *)

(* [buf] holds every byte received but not yet popped; [pos] is the
   consumed prefix.  Extraction is O(frame) and the buffer is compacted
   once the dead prefix dominates, so a long-lived connection does not
   accumulate garbage. *)
type decoder = { mutable buf : Buffer.t; mutable pos : int }

let decoder () = { buf = Buffer.create 512; pos = 0 }

let feed d bytes off len = Buffer.add_subbytes d.buf bytes off len

let feed_string d s = Buffer.add_string d.buf s

let compact d =
  if d.pos > 4096 && 2 * d.pos > Buffer.length d.buf then begin
    let rest = Buffer.sub d.buf d.pos (Buffer.length d.buf - d.pos) in
    let fresh = Buffer.create (String.length rest + 512) in
    Buffer.add_string fresh rest;
    d.buf <- fresh;
    d.pos <- 0
  end

(* The buffered header's length, newline excluded, or [None] while its
   newline has not arrived; never scans past [max_header] bytes. *)
let header_length d =
  let avail = Buffer.length d.buf - d.pos in
  let rec find_newline i =
    if i >= avail then None
    else if Char.equal (Buffer.nth d.buf (d.pos + i)) '\n' then Some i
    else if i + 1 >= max_header then
      bad "no frame header within %d bytes" max_header
    else find_newline (i + 1)
  in
  find_newline 0

let payload_length d header_len = length_of_header (Buffer.sub d.buf d.pos header_len)

let next d =
  match header_length d with
  | None -> None
  | Some header_len ->
      let len = payload_length d header_len in
      let total = header_len + 1 + len + 1 in
      if Buffer.length d.buf - d.pos < total then None
      else begin
        let terminator = Buffer.nth d.buf (d.pos + total - 1) in
        if not (Char.equal terminator '\n') then
          bad "frame of %d bytes not terminated by a newline" len;
        let payload = Buffer.sub d.buf (d.pos + header_len + 1) len in
        d.pos <- d.pos + total;
        compact d;
        Some payload
      end

let finish d =
  if Buffer.length d.buf > d.pos then
    match header_length d with
    | None -> bad "end of stream inside a frame header"
    | Some header_len ->
        bad "end of stream inside a %d-byte frame" (payload_length d header_len)
