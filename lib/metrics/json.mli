(** Minimal JSON tree with an emitter and a strict parser.

    Written in-repo because the toolchain ships no JSON library; covers
    exactly what the benchmark reports ({!Bench_report}) and the metrics
    registry ({!Metrics}) need.  Numbers are split into [Int] and [Float]
    ([Float nan] prints as [null]); strings are byte sequences with the
    standard escapes ([\uXXXX] is decoded to UTF-8 on input, surrogate
    pairs unsupported). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?compact:bool -> t -> string
(** Serialize; 2-space-indented unless [compact] (default [false]). *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document; the error carries a byte
    offset. *)

(** {1 Pieces for one-pass codecs}

    The serving protocol ({!Protocol}) reads and writes its documents
    without building a tree; it shares these pieces with {!to_string}
    and {!of_string}, so both produce and accept the same bytes. *)

exception Syntax of string
(** Raised by the readers below; the message carries a byte offset. *)

val write_string : Buffer.t -> string -> unit
(** The quoted, escaped form of a string, as {!to_string} prints it: a
    backslash before the quote and the backslash, the two-character
    escapes for newline, carriage return and tab, a [u00XX] escape for
    the other control bytes, and every other byte as is. *)

val float_repr : float -> string
(** How {!to_string} prints a [Float]: [%.1f] for integers below 1e15,
    otherwise the shortest of [%.15g], [%.16g] and [%.17g] that parses
    back to the same double, and [null] for NaN. *)

val read_string : string -> int -> string * int
(** [read_string s pos] decodes the string literal whose opening quote
    is at [pos]: the decoded bytes and the offset just past the closing
    quote.  Escapes are decoded as {!of_string} decodes them.
    @raise Syntax on anything else. *)

val read_float : string -> int -> float * int
(** [read_float s pos] reads a number the way {!of_string} then
    {!to_float_opt} do: the longest run of [0-9+-.eE] at [pos], an [Int]
    when it is [[+-]?[0-9]+] within [int] and otherwise whatever
    [float_of_string] makes of it.  Returns the value and the offset just
    past the run.
    @raise Syntax when the run is no number (an empty run included). *)

val member : string -> t -> t option
(** First field of that name if the value is an [Obj]. *)

val to_float_opt : t -> float option
(** Numeric projection: accepts both [Int] and [Float]. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option
