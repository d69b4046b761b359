(** Load generator for the serving daemon.

    Builds deterministic query sequences from a seed and a named mix,
    then replays them either in-process against an {!Engine} (the
    [serve/*] benchmark scenarios) or over the wire against a running
    daemon with [clients] concurrent connections, each keeping up to
    [window] requests in flight (the CI smoke test).  The socket replayer
    is a single-threaded [Unix.select] multiplexer, so results and
    per-client FIFO checks are reproducible without any thread scheduling
    nondeterminism.

    Mixes (see [docs/SERVING.md] for the exact recipes):
    - {e repeat-heavy}: queries drawn Zipf-style from a small pool of
      eight demand sets — exercises the cache's hit path;
    - {e churn}: a sliding window over a job stream, advancing every
      fourth query — a mix of repeats and fresh sets;
    - {e cold-miss}: a fresh demand set per query — the cache-defeating
      worst case.

    With [check] set, every successful response is re-verified against a
    fresh oracle call ({!Engine.evaluate}) and must be bit-identical
    ({!Protocol.answer_equal}); any mismatch, FIFO-order violation or
    transport error makes the replay return [Error]. *)

type mix = Repeat_heavy | Churn | Cold_miss

val mix_name : mix -> string
val mix_of_string : string -> (mix, string) result
val all_mixes : mix list

val queries : seed:int -> mix:mix -> n:int -> Protocol.request array
(** Deterministic: equal [(seed, mix, n)] yield identical requests with
    ids [0 .. n-1]. *)

type stats = {
  sent : int;
  completed : int;
  error_responses : int;
  cached_responses : int;  (** responses the daemon answered from cache *)
  hit_rate : float;  (** [cached_responses / completed] (0 when empty) *)
  wall_ns : float;
  throughput_qps : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;  (** exact quantiles of per-request latency *)
}

val replay_engine :
  ?check:bool -> ?batch:int -> Engine.t -> Protocol.request array ->
  (stats, string) result
(** In-process replay, feeding the engine [batch] requests at a time
    (default 16). *)

val connect : ?attempts:int -> string -> (Unix.file_descr, string) result
(** Connect to a daemon's Unix socket, retrying every 100 ms for up to
    [attempts] tries (default 50) while the daemon is still binding. *)

val replay_socket :
  ?check:bool -> socket:string -> clients:int -> window:int ->
  Protocol.request array -> (stats, string) result
(** Queries are dealt round-robin to [clients] connections; each client
    pipelines up to [window] requests.  Asserts that every connection's
    responses arrive in the order its requests were sent. *)

val send_shutdown : socket:string -> unit -> (unit, string) result
(** One [shutdown] request on a fresh connection, sent through
    {!replay_socket} (so it counts in [loadgen.queries]); waits for the
    pong. *)
