(** Wire protocol of the [cmvrp_serve] daemon.

    One request or response per {!Frame} payload, encoded as one compact
    JSON document — the "length-prefixed JSON lines" protocol of
    [docs/SERVING.md].  A request names an oracle operation and carries a
    demand set as [(position, demand)] rows; a response carries the
    operation's answer bit-identically (the JSON float emitter is
    shortest-round-trip), a [cached] flag, and echoes the request [id] so
    clients can pipeline.

    The module also defines the {e canonical demand-set digest} the
    result cache keys on: each aggregated demand row hashes through
    {!Fnv} independently and the rows combine by wrapping integer
    addition, so the digest is algebraically permutation-invariant and a
    streaming session can maintain it in O(1) per mutation
    ({!rowsum_update}). *)

type op =
  | Omega_star  (** [ω*] of program (2.8) — {!Oracle.omega_star} *)
  | Lp_value of int
      (** value of program (2.1) at the given radius — {!Oracle.lp_value} *)
  | Witness  (** a tight set for (2.8) — {!Oracle.witness} *)
  | Ping  (** liveness probe; never touches the oracle or the cache *)
  | Shutdown  (** ask the daemon to stop after answering *)
  | Session_add of Point.t
      (** one unit job arrives at the point — {!Oracle.Session.add_job};
          requires a [session] name, creates the session on first use *)
  | Session_remove of Point.t
      (** one unit job retires — {!Oracle.Session.remove_job} *)
  | Session_query
      (** current [ω*] of the named session — {!Oracle.Session.omega_star} *)

type request = private {
  id : int;  (** echoed verbatim; clients use it to match pipelined replies *)
  op : op;
  demand : Demand_map.t;  (** already aggregated — the canonical form *)
  session : string option;
      (** names the server-side streaming session the [Session_*] ops
          address; ignored by the stateless ops *)
  digest : int;
      (** [demand_digest demand], computed once: by {!request}, or summed
          by {!request_of_string} while it reads the rows *)
}

type answer =
  | Value of float  (** [Omega_star] and [Lp_value] results *)
  | Tight_set of (Point.t list * float) option  (** [Witness] result *)
  | Pong  (** [Ping]/[Shutdown] acknowledgement *)

type encoded
(** An answer's member as it goes on the wire (the [value], [witness] or
    [pong] member with its value), encoded once so the cache can keep it
    next to the answer and a hit prints no float. *)

val encode_answer : answer -> encoded

type response = {
  r_id : int;
  r_cached : bool;
  r_result : (answer, string) result;
  r_encoded : encoded option;
      (** [Some (encode_answer a)] when [r_result] is [Ok a] and the engine
          holds its bytes; {!response_to_string} then writes them as they
          are.  [None] encodes [r_result] afresh. *)
}

val request : ?session:string -> id:int -> op -> Demand_map.t -> request
(** Computes the request's {!demand_digest}. *)

val demand_digest : Demand_map.t -> int
(** Canonical digest of a demand function: permutation-invariant over the
    rows it was built from, dimension- and multiplicity-sensitive.  A
    fingerprint, not a proof of equality — cache consumers pair it with
    structural comparison ({!Qcache}).  Equals
    [digest_of_rowsum ~dim ~rowsum ~support] where [rowsum] is the
    wrapping sum, over the support, of each aggregated
    [(position, value)] row's FNV hash seeded by the dimension. *)

val rowsum_update : dim:int -> rowsum:int -> Point.t -> before:int -> after:int -> int
(** The row sum after one site's aggregated demand changes from [before]
    to [after]: subtracts the old row's digest and adds the new one
    (zero-demand rows contribute nothing).  Wrapping addition forms a
    group, so a maintained row sum stays exactly equal to the
    from-scratch fold at every step. *)

val digest_of_rowsum : dim:int -> rowsum:int -> support:int -> int
(** Close a maintained row sum into the canonical digest; agrees with
    {!demand_digest} on the demand it tracks. *)

(** {1 Codec}

    Compact JSON written into a buffer and read in one pass over the
    payload, with no [Json.t] tree: [id], [op], [dim], [demand], then
    [session], then [radius] or [point] where the op has one.  The
    decoders take the members in any order and whitespace between any
    two tokens, check the syntax of members they do not know and skip
    them, and return [Error] for a known member that repeats or holds
    the wrong type.  An integer is [[+-]?[0-9]+] within [int]; anything
    else where one is expected is an [Error].  Neither decoder raises. *)

val request_to_string : request -> string

val request_of_string : string -> (request, string) result
(** Collects the demand rows into arrays and sums their row digests on
    the way, so the request's [digest] costs no second pass; rows sorted
    as {!request_to_string} writes them become the demand in one more
    linear pass, others are sorted and merged.  [Error] on malformed
    JSON, a missing or ill-typed member, an unknown op, a bad demand row
    (wrong width, a negative value, or a point whose total does not fit
    in an [int]), and on a ["scale"] member: answers are resolved on the
    oracle's fixed LP grid, so a client asking for another resolution is
    told so rather than answered on that grid. *)

val response_to_string : response -> string

val response_of_string : string -> (response, string) result
(** The decoded response has [r_encoded = None]. *)

val answer_equal : answer -> answer -> bool
(** Bit-exact comparison: float equality on values, [Point.equal] on
    witness members.  This is the predicate behind [loadgen --check]. *)
