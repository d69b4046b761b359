(** Process-wide observability registry: named counters, gauges and
    monotonic-clock timers.

    Instrumented modules create their cells once at load time
    ([let m = Metrics.counter "maxflow.runs"]) and mutate them on
    the hot path; a counter update is one atomic add, so instrumentation
    can stay on in production code paths.

    Names are dot-separated, [<subsystem>.<quantity>] — the full list
    lives in [docs/OBSERVABILITY.md].  The registry is global and
    domain-safe: counter updates are lock-free atomics, while gauge/timer
    mutation and the registry itself are mutex-guarded, so instrumented
    code can run under [Pool] fan-out without races.  {!reset} zeroes all
    values but keeps registrations, which is how the benchmark harness
    isolates per-scenario snapshots. *)

type counter
type gauge
type timer
type histogram

(** {1 Cells}

    Creation is get-or-create by name; asking for an existing name with a
    different kind raises [Invalid_argument]. *)

val counter : string -> counter
val gauge : string -> gauge
val timer : string -> timer

val histogram : string -> histogram
(** Fixed-bucket distribution cell for latency-style quantities.  The
    buckets are geometric and shared by every histogram: upper bounds
    [1µs · 2^i] in nanoseconds for [i = 0 .. 25] (≈1 µs to ≈33.6 s) plus
    one overflow bucket, so two histograms are always comparable and a
    snapshot is a few dozen ints.  See [docs/SERVING.md] for reading the
    p50/p95/p99 readout. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set_gauge : gauge -> float -> unit
(** Sets the current level and maintains the high-water mark. *)

val gauge_value : gauge -> float
val gauge_peak : gauge -> float

val time : timer -> (unit -> 'a) -> 'a
(** Runs the thunk, accumulating its monotonic-clock duration and call
    count (also on exception). *)

val add_ns : timer -> float -> unit
(** Record an externally measured duration. *)

val now_ns : unit -> float
(** Monotonic clock reading in nanoseconds ([CLOCK_MONOTONIC]); only
    differences are meaningful. *)

val timer_ns : timer -> float
val timer_calls : timer -> int

val observe : histogram -> float -> unit
(** Records one observation (a duration in nanoseconds, by convention).
    Negative values clamp into the lowest bucket. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] for [q] in [\[0, 1\]] is the upper bound of
    the bucket containing the [⌈q·count⌉]-th smallest observation — a
    conservative (upper) quantile estimate, e.g.
    [histogram_quantile h 0.99] for p99.  [nan] while the histogram is
    empty; raises [Invalid_argument] outside [\[0, 1\]]. *)

(** {1 Registry-wide views} *)

type sample =
  | Count of int
  | Level of { value : float; peak : float }
  | Span of { ns : float; calls : int }
  | Dist of { count : int; sum : float; buckets : (float * int) list }
      (** Histogram snapshot: total observation count, sum, and the
          non-empty buckets as (upper bound, count) pairs in ascending
          bound order. *)

val snapshot : unit -> (string * sample) list
(** All registered cells, sorted by name. *)

val sample : string -> sample option
val reset : unit -> unit

val json_of_snapshot : (string * sample) list -> Json.t
(** Object keyed by metric name; see [docs/OBSERVABILITY.md] for the
    per-kind field layout. *)

val json_of_sample : sample -> Json.t
val sample_of_json : Json.t -> (sample, string) result
