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

type request = {
  id : int;  (** echoed verbatim; clients use it to match pipelined replies *)
  op : op;
  demand : Demand_map.t;  (** already aggregated — the canonical form *)
  session : string option;
      (** names the server-side streaming session the [Session_*] ops
          address; ignored by the stateless ops *)
}

type answer =
  | Value of float  (** [Omega_star] and [Lp_value] results *)
  | Tight_set of (Point.t list * float) option  (** [Witness] result *)
  | Pong  (** [Ping]/[Shutdown] acknowledgement *)

type response = { r_id : int; r_cached : bool; r_result : (answer, string) result }

val request : ?session:string -> id:int -> op -> Demand_map.t -> request

val demand_digest : Demand_map.t -> int
(** Canonical digest of a demand function: permutation-invariant over the
    rows it was built from, dimension- and multiplicity-sensitive.  A
    fingerprint, not a proof of equality — cache consumers pair it with
    structural comparison ({!Qcache}).  Equals
    [digest_of_rowsum ~dim ~rowsum ~support] where [rowsum] is the
    wrapping sum of [row_digest] over the support. *)

val row_digest : dim:int -> Point.t -> int -> int
(** FNV hash of one aggregated [(position, value)] row, seeded by the
    demand dimension. *)

val rowsum_update : dim:int -> rowsum:int -> Point.t -> before:int -> after:int -> int
(** The row sum after one site's aggregated demand changes from [before]
    to [after]: subtracts the old row's digest and adds the new one
    (zero-demand rows contribute nothing).  Wrapping addition forms a
    group, so a maintained row sum stays exactly equal to the
    from-scratch fold at every step. *)

val digest_of_rowsum : dim:int -> rowsum:int -> support:int -> int
(** Close a maintained row sum into the canonical digest; agrees with
    {!demand_digest} on the demand it tracks. *)

val request_to_string : request -> string

val request_of_string : string -> (request, string) result
(** [Error] on malformed JSON, a missing or ill-typed field, an unknown
    op, a bad demand row, and on a ["scale"] member: answers are
    resolved on the oracle's fixed LP grid, so a client asking for
    another resolution is told so rather than answered on that grid. *)

val response_to_string : response -> string
val response_of_string : string -> (response, string) result

val answer_equal : answer -> answer -> bool
(** Bit-exact comparison: float equality on values, [Point.equal] on
    witness members.  This is the predicate behind [loadgen --check]. *)
