(** Discrete-event message-passing simulator with fault injection.

    The reliable base model is exactly the communication model assumed in
    §3.2 of the paper: point-to-point messages between integer-identified
    processes, delivered after a finite, arbitrary (here: seeded
    pseudo-random) delay, in FIFO order per ordered channel ("synchronous
    communication" in the paper's terminology), with unbounded input
    buffers.  Communication costs no energy.

    On top of that, one fault profile for every channel can drop
    messages, deliver duplicates and spike delays; links between process
    pairs can be partitioned, and whole processes crashed and restarted —
    the chaos layer the hardened online protocol (docs/ROBUSTNESS.md) is
    tested against.  Self-channels ([src = dst]) carry a process's local
    timers and are exempt from channel faults, though a crashed process
    loses its pending timers: a timer set before a crash never fires,
    not even one that comes due after the process restarts.  A
    process's clock is not a channel: a self-channel adds no delay and
    keeps no FIFO order, so each timer fires exactly its delay after it
    was set (one set for +4 after one set for +1,600 fires at +4), and
    draws nothing from the RNG, which holds only channel draws.  A
    scheduled restart ({!restart_after}) follows the same rule.

    The simulator is generic in the message type.  Clients [send] from
    within the handler; [run_until_quiescent] drains the event queue,
    which models the paper's assumption that consecutive job arrivals are
    spaced widely enough for all computation and movement to finish.  The
    drain is budget-bounded so a retry loop that cannot make progress
    surfaces as a [Livelock] report instead of an infinite spin, and
    events sent with [~weak:true] (periodic keepalives) do not prevent
    quiescence once the client's [idle_ok] predicate holds.

    Internally the queue is a 4-level hierarchical time wheel over a
    struct-of-arrays event arena (docs/SCALE.md): schedule and dispatch
    are O(1) amortized instead of O(log n), and the dispatch order is
    bit-identical to the former comparison heap's [(time, seq)] order, so
    trace digests replay across the change.  Process ids must fit 30
    bits.  The simulator does not weigh itself: the
    ["des.bytes_per_vehicle"] gauge comes from [Online.run_fleet], which
    measures the heap reachable from each shard's whole protocol world,
    this simulator included. *)

type 'msg t

(** {1 Fault model} *)

type faults = {
  drop_p : float;  (** probability a message is silently lost *)
  dup_p : float;  (** probability a second copy is delivered *)
  spike_p : float;  (** probability the delay spikes by [spike_delay] *)
  spike_delay : float;  (** extra delay added on a spike *)
}

val reliable : faults
(** The no-fault profile: all probabilities zero. *)

val faults :
  ?drop_p:float ->
  ?dup_p:float ->
  ?spike_p:float ->
  ?spike_delay:float ->
  unit ->
  faults
(** Validated constructor (probabilities in [\[0,1\]], non-negative spike
    delay; raises [Invalid_argument] otherwise).  [spike_delay] defaults
    to 10.0, everything else to 0. *)

val create :
  ?min_delay:float ->
  ?max_delay:float ->
  ?faults:faults ->
  rng:Rng.t ->
  unit ->
  'msg t
(** Fresh simulator.  Message delays are uniform in
    [\[min_delay, max_delay\]] (defaults 0.1 and 1.0); FIFO order per
    channel between two processes is enforced on top of the random
    draw.  [faults] is the
    profile of every channel for the simulator's life (default:
    [reliable]).  Raises
    [Invalid_argument] unless both bounds are finite and
    [0 <= min_delay <= max_delay]. *)

val partition : _ t -> int -> int -> unit
(** Cuts the (symmetric) link between two processes for the rest of the
    run: messages either way are dropped.  Partitioning a node from
    itself is a no-op — self-channels are timers, not links.  Raises
    [Invalid_argument] on an id outside [\[0, 2^30)], as do [crash],
    [restart_after] and the send functions. *)

val crash : _ t -> int -> unit
(** Marks a process down.  While down, messages from or to it are
    dropped and counted in [drops].  The timers it set before the crash
    are dropped and counted when they come due, also once it is back
    up.  The crashed set is a bitmap sized by the largest id crashed so
    far. *)

val restart_after : _ t -> delay:float -> int -> unit
(** Brings a crashed process back [delay] from now on the simulated
    timeline and invokes the restart hook then: it does not wait for
    the timers the process set before the crash, none of which fires.
    No-op if the process is up by that time.  Raises
    [Invalid_argument] on a negative or non-finite delay. *)

val is_down : _ t -> int -> bool

val set_restart_hook : _ t -> (time:float -> int -> unit) -> unit
(** Called when a scheduled restart brings a process back, with the
    simulation time at which it came back, so the protocol layer can
    re-initialise its state and re-arm timers. *)

(** {1 Sending and draining} *)

val now : _ t -> float
(** Current simulation time. *)

val send : ?weak:bool -> 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueues a message for delivery after a random delay, through the
    channel's fault pipeline.  [~weak:true] marks a background event
    (periodic keepalive / watchdog): weak events still deliver in time
    order but do not by themselves keep [run_until_quiescent] running. *)

val send_after :
  ?weak:bool -> 'msg t -> delay:float -> src:int -> dst:int -> 'msg -> unit
(** Enqueues with an explicit extra delay.  Between two processes the
    channel's random delay is added on top; a self-message (a timer:
    heartbeat deadline, retry backoff) fires exactly [delay] from now,
    with no jitter and no RNG draw.  Raises
    [Invalid_argument] on a negative or non-finite delay: a [nan] or
    infinite delivery time has no place on the timeline. *)

type outcome =
  | Quiescent  (** drained: no strong events remain *)
  | Livelock of { dispatched : int; pending : int }
      (** the dispatch budget was exhausted with events still queued —
          the protocol is spinning without making progress *)

val run_until_quiescent :
  ?budget:int ->
  ?idle_ok:(unit -> bool) ->
  'msg t ->
  handler:(time:float -> src:int -> dst:int -> 'msg -> unit) ->
  outcome
(** Delivers events in timestamp order.  The handler may call
    [send]/[send_after] to extend the computation.  Stops with
    [Quiescent] when no strong events remain and [idle_ok ()] holds
    (default: always), leaving any weak events queued for a later drain;
    stops with [Livelock] after popping [budget] events (default:
    unbounded).  Raises [Invalid_argument] on a non-positive budget.

    The simulator counts in plain fields and publishes to {!Metrics}
    once, when the drain returns or the handler raises out of it: every
    ["des.*"] counter gains what happened since the previous publish
    (sends made before the drain included), and the ["des.queue_depth"]
    gauge is set to the strong high-water mark and then to the strong
    count left.  So the registry is exact after each drain, not in the
    middle of one, and sends with no drain after them are not yet
    counted. *)

(** {1 Introspection} *)

val pending : _ t -> int
(** Number of undelivered events (including weak ones). *)

val messages_delivered : _ t -> int
(** Total messages delivered since creation — the protocol-cost metric of
    experiment E8. *)

val queue_peak : _ t -> int
(** High-water mark of the total event queue (weak events included)
    since creation — the queue's memory watermark.  The
    ["des.queue_depth"] gauge instead reports {e strong} events (the ones
    that keep a drain running): published when a drain ends, its peak is
    the strong high-water mark since creation and its value the strong
    count that drain left. *)

val channel_meta_size : _ t -> int
(** Live per-channel metadata entries (FIFO fronts).  Bounded: fronts
    behind the clock are pruned on an amortized-O(1) schedule (counted by
    ["des.channel_prunes"]), so touching many distinct channels once does
    not grow the simulator without bound. *)

val drops : _ t -> int
(** Messages lost to channel faults, partitions or crashed endpoints. *)

val dups : _ t -> int
(** Duplicate copies injected by channel faults. *)

(** {1 Deterministic traces} *)

type 'msg step = { at : float; src : int; dst : int; msg : 'msg }

val digest : _ t -> int
(** Rolling checksum over every dispatched (time, src, dst) triple,
    updated on delivery.  Two runs with the same seed and fault
    configuration produce the same digest bit for bit — the cheap,
    always-on determinism witness. *)

val set_trace : _ t -> bool -> unit
(** Enables (or disables and clears) full event recording. *)

val trace : 'msg t -> 'msg step list
(** Dispatched events in delivery order, if tracing was enabled. *)

val replay :
  'msg step list ->
  handler:(time:float -> src:int -> dst:int -> 'msg -> unit) ->
  unit
(** Feeds a recorded trace back through a handler — for offline analysis
    of a failing chaos run without re-simulating. *)
