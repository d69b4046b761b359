(** The serving engine: oracle queries in, answers out, cache in between.

    The engine is transport-agnostic — the daemon's socket loop, the
    stdio pipe, the load generator's in-process mode and the benchmark
    scenarios all feed it the same way: {!process_batch} with whatever
    requests are currently pending.

    A batch is processed in three phases (see [docs/SERVING.md]):

    + {b probe} (control domain): each request's cache key is computed
      and looked up; duplicate keys {e within} the batch are coalesced
      onto one computation;
    + {b compute} ([Pool] fan-out): the distinct misses run through the
      exact oracle in parallel, each on its own warm flow arena;
    + {b publish} (control domain): results enter the cache and the
      responses are assembled in request order.

    Only phase 2 is parallel, so the cache needs no locking, and the
    response order (and every [serve.*] counter) is deterministic at any
    [Pool] width.

    {b Streaming sessions} ([Session_add]/[Session_remove]/[Session_query])
    are handled entirely inside phase 1: each named session wraps an
    {!Oracle.Session} (incremental ω*, persistent flow arenas) plus an
    O(1)-maintained digest row sum, and that mutable state is
    control-domain confined — it never crosses the [Pool].  A
    [Session_query] keys the cache with the maintained digest over the
    session's live demand snapshot under the stateless [Omega_star] op,
    so session queries and one-shot [Omega_star] requests on the same
    demand share cache entries — legitimately, because session answers
    are bit-identical to from-scratch oracle calls.

    Answers are bit-identical to one-shot {!Oracle} calls: a cache hit
    returns the stored float/witness unchanged, and a miss runs exactly
    the code path the CLI's [solve] would. *)

type t

val create : ?cache_capacity:int -> ?max_sessions:int -> unit -> t
(** [cache_capacity] defaults to 4096 entries.  [max_sessions]
    (default 64, must be positive) caps the live streaming sessions:
    each session pins warm flow arenas, so under client churn an
    unbounded table is a memory leak.  When a [Session_add] would
    exceed the cap, the least-recently-used session is evicted (every
    session op counts as a use); a later [Session_add] under the
    evicted name simply starts a fresh empty session. *)

val evaluate : Protocol.request -> (Protocol.answer, string) result
(** One fresh oracle evaluation, bypassing the cache — the reference the
    load generator's [--check] mode compares served answers against.
    Control ops answer [Pong]; oracle failures come back as [Error].
    Session ops are [Error]: they need engine state, so there is no
    stateless reference path for them. *)

val process_batch : t -> Protocol.request array -> Protocol.response array
(** [(process_batch t reqs).(i)] answers [reqs.(i)].  Malformed requests
    (dimension mismatches, unknown sessions) and demands too large for
    the integer flow network ([Energy.Overflow]) yield [Error]
    responses; the call itself never raises on request content. *)

val cache_size : t -> int

val session_count : t -> int
(** Live streaming sessions (also published as the [serve.sessions]
    gauge).  [Session_add] with a fresh name creates one; sessions live
    until evicted by the [max_sessions] LRU cap. *)

val session_evictions : t -> int
(** Sessions evicted by the LRU cap since creation (also the
    ["serve.session_evictions"] counter). *)

val wants_shutdown : Protocol.request -> bool
(** True on [Shutdown] — transports decide what to do with it; the
    engine just answers [Pong]. *)
