(** The [cmvrp_serve] daemon loop: a single-threaded [Unix.select] front
    end over the {!Engine}.

    One control domain owns every socket and the cache; parallelism only
    happens inside {!Engine.process_batch}'s [Pool] fan-out.  Per select
    round the loop reads whatever bytes are available on each connection,
    drains complete frames into a pending queue, and feeds the queue to
    the engine in arrival order, [max_batch] requests at a time — so
    concurrent clients get batched together, and each client's responses
    come back in the order it sent its requests (the per-client FIFO the
    concurrent-client suite asserts).

    Framing is {!Frame}'s length-prefixed JSON lines.  A frame that does
    not decode as a request gets an [id = -1] error response in its turn,
    after the answers to the requests sent before it: such an error can
    only be matched by its position.  A [Frame.Bad_frame] (oversized /
    corrupt header) gets one too, also in its turn: the requests decoded
    before it on that connection are answered first, then its error, and
    then the connection is closed, since the byte stream past the header
    can no longer be trusted.  On stdio that connection is the only one,
    so {!run} re-raises it.

    A [shutdown] request is answered like any other, then the loop
    flushes all connections and returns.  On stdio transport, EOF on
    stdin also ends the loop. *)

type transport =
  | Unix_socket of string
      (** Path to bind; an existing socket file is unlinked first, and
          the file is removed again on exit. *)
  | Stdio  (** Serve one client over stdin/stdout. *)

type config = {
  transport : transport;
  cache_capacity : int;
  max_sessions : int;  (** LRU cap on live streaming sessions. *)
  max_batch : int;  (** Engine batch ceiling per drain; must be positive. *)
}

val default_max_batch : int

val config :
  ?cache_capacity:int -> ?max_sessions:int -> ?max_batch:int -> transport -> config

val run : ?trace:(string -> unit) -> config -> unit
(** Blocks until shutdown.  [trace] receives one-line lifecycle notes
    (bind, accept, close, shutdown) for the caller to log.

    @raise Frame.Bad_frame on stdio transport, after answering the bad
    frame with an [id = -1] error (the command-line daemon exits 1).

    Sets SIGPIPE to ignored for the whole process before serving, so a
    client that disconnects with responses still pending makes the write
    fail with [EPIPE] (dropped for that connection) instead of killing
    the daemon. *)
