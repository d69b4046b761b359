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

    Frames go out through {!encode} and come in through an incremental
    {!decoder} fed arbitrary byte chunks: the daemon's one select loop
    reads whatever a socket or stdin has and pops the complete frames,
    and so do the load generator's clients.  See [docs/SERVING.md]. *)

exception Bad_frame of string
(** Malformed header (empty, a byte other than an ASCII digit, no
    newline within its longest legal length of 9 bytes, or a length
    past {!max_payload}), missing trailing newline, or the end of the
    stream inside a frame. *)

val max_payload : int
(** Hard cap on a single payload (16 MiB) — a corrupt or hostile header
    cannot make a peer allocate unboundedly. *)

val encode : string -> string
(** The full wire form of one payload. *)

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d buf off len] appends a chunk of received bytes. *)

val feed_string : decoder -> string -> unit

val next : decoder -> string option
(** Pops the next complete payload, or [None] if more bytes are needed.
    Raises {!Bad_frame} as soon as the buffered prefix cannot start a
    valid frame: a header is never scanned past 9 bytes. *)

val finish : decoder -> unit
(** The end of the stream, once {!next} has returned [None]: raises
    {!Bad_frame} if the decoder still holds the start of a frame
    (["end of stream inside a frame header"] or ["end of stream inside
    a N-byte frame"]), and returns if the stream ended between frames. *)
