(** Length-prefixed message framing for the serving protocol.

    A frame is [<decimal length>\n<payload>\n]: an ASCII decimal byte
    count (digits only: no sign, base prefix or underscore), a newline,
    exactly that many payload bytes, and a trailing newline.  Payloads
    are opaque byte strings (in practice one compact JSON document —
    hence "length-prefixed JSON lines"); the explicit length makes the
    stream self-delimiting even if a payload contains newlines, and
    keeps both sides resynchronizable by construction: any header
    violation raises {!Bad_frame} rather than silently skewing the
    stream.

    Two consumption styles:
    - blocking {!read}/{!write} over [Stdlib] channels (the stdio
      transport and the load-generator client);
    - an incremental {!decoder} fed arbitrary byte chunks (the daemon's
      select loop, which reads whatever the socket has and pops the
      complete frames).  See [docs/SERVING.md]. *)

exception Bad_frame of string
(** Malformed header (empty, a byte other than an ASCII digit, or a
    length past {!max_payload}) or missing trailing newline. *)

val max_payload : int
(** Hard cap on a single payload (16 MiB) — a corrupt or hostile header
    cannot make a peer allocate unboundedly. *)

val encode : string -> string
(** The full wire form of one payload. *)

val write : out_channel -> string -> unit
(** [write oc payload] emits one frame and flushes. *)

val read : in_channel -> string option
(** Blocking read of one complete frame; [None] at a clean end of stream
    (EOF before the first header byte).  EOF mid-frame, header included,
    raises {!Bad_frame}, and so does a header with no newline within its
    longest legal length (9 bytes): the reader consumes no more than
    that. *)

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d buf off len] appends a chunk of received bytes. *)

val feed_string : decoder -> string -> unit

val next : decoder -> string option
(** Pops the next complete payload, or [None] if more bytes are needed.
    Raises {!Bad_frame} as soon as the buffered prefix cannot start a
    valid frame. *)
