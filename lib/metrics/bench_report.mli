(** Machine-readable benchmark reports ([BENCH_<rev>.json]) and the
    regression check behind [cmvrp_cli bench-diff].

    A report is a list of named scenarios, each with a wall-clock duration
    and a {!Metrics} snapshot taken right after the scenario ran.  The
    JSON schema (version {!schema_version}) is documented in
    [docs/OBSERVABILITY.md]. *)

type scenario = {
  name : string;
  wall_ms : float;
  metrics : (string * Metrics.sample) list;
}

type t = {
  schema_version : int;
  revision : string;
  quick : bool;
  scenarios : scenario list;
}

val schema_version : int

val make : revision:string -> quick:bool -> scenario list -> t
(** Stamps the current {!schema_version}. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write_file : string -> t -> unit
val read_file : string -> (t, string) result

(** {1 Regression detection} *)

type regression = {
  scenario : string;
  subject : string;
      (** ["wall_ms"], ["missing"], a counter name, [<gauge>.peak] or
          [<timer>.ns]. *)
  baseline_value : float;
  candidate_value : float;
  limit : float;  (** the threshold that was exceeded *)
}

val diff :
  ?wall_tolerance:float ->
  ?metric_tolerance:float ->
  baseline:t ->
  candidate:t ->
  unit ->
  regression list
(** One-sided comparison of [candidate] against [baseline], scenario by
    scenario (matched by name; scenarios only in the candidate are
    ignored, scenarios only in the baseline are reported as ["missing"]).

    A quantity regresses when
    [new > (1 + tolerance) * old + slack] — wall time and timer spans use
    [wall_tolerance] (default 0.5) with a 0.5 ms absolute slack, counters
    and gauge peaks use [metric_tolerance] (default 0.1) with no slack.
    Equal reports therefore never regress, at any tolerance; improvements
    are never flagged.  Raises [Invalid_argument] on a negative
    tolerance. *)

val pp_regression : Format.formatter -> regression -> unit
