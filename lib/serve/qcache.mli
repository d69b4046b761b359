(** Digest-keyed, structurally verified result cache of the serving
    engine.

    Keys are (demand digest, op); the digest ({!Protocol.demand_digest},
    carried on every request) is only the bucket index — every lookup re-verifies the candidate
    entry against the full key with [Point]-aware structural equality, so
    an FNV collision degrades to a miss, never to a wrong answer.  Cached
    answers are therefore bit-identical to what a fresh oracle call would
    return (the QCheck property in [test/suite_serve.ml]).

    The engine keeps each answer next to its encoded wire member
    ({!Protocol.encoded}), so a hit writes stored bytes and prints no
    float.

    Capacity is bounded with FIFO eviction (insertion order), which is
    cheap, deterministic, and good enough for replayed query mixes; the
    engine publishes hit/miss/eviction counters through {!Metrics}.

    Not domain-safe by design: only the daemon's control domain touches
    the cache (lookups happen before, and insertions after, the [Pool]
    fan-out — see {!Engine}), so no locking is needed. *)

type key

val key_with_digest : digest:int -> op:Protocol.op -> Demand_map.t -> key
(** The key of [op] on a demand whose {!Protocol.demand_digest} the
    caller already holds: a request's [digest] field, or a session's
    incrementally maintained {!Protocol.rowsum_update} closure.  A stale
    digest degrades to a cache miss, never a wrong answer, because
    lookups still verify structurally.  [Ping]/[Shutdown] requests are
    never cached, and [Session_*] ops key through their demand snapshot
    under a stateless op instead; asking for a key on any of them raises
    [Invalid_argument]. *)

val equal : key -> key -> bool
(** Full structural equality (digest, op tag, then the demand maps
    point by point) — the comparison every lookup uses, exposed so the
    engine can coalesce duplicate keys within a batch. *)

type 'v t

val create : capacity:int -> unit -> 'v t
(** [capacity] must be positive. *)

val find : 'v t -> key -> 'v option
val add : 'v t -> key -> 'v -> unit
(** Re-adding a live key replaces its value without consuming capacity. *)

val size : 'v t -> int
