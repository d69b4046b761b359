(** The [cmvrp_serve] daemon loop: a single-threaded [Unix.select] front
    end over the {!Engine}, the same loop for both transports.

    One control domain owns every descriptor and the cache; parallelism
    only happens inside {!Engine.process_batch}'s [Pool] fan-out.  A
    connection reads requests from one descriptor and writes replies to
    another: a socket is both, and stdio is one connection that reads
    stdin and writes stdout, with no listener.  Per select round the loop
    accepts a waiting client, reads whatever bytes are available on each
    connection, drains complete frames into a pending queue, and feeds
    the queue to the engine in arrival order, [max_batch] requests at a
    time — so concurrent clients get batched together, and each client's
    responses come back in the order it sent its requests (the
    per-client FIFO the concurrent-client suite asserts).  Out of
    descriptors ([EMFILE], [ENFILE]), it stops accepting until a
    connection closes or a second passes, and serves the clients it has.

    Framing is {!Frame}'s length-prefixed JSON lines.  A frame that does
    not decode as a request gets an [id = -1] error response in its turn,
    after the answers to the requests sent before it: such an error can
    only be matched by its position.  A [Frame.Bad_frame] (oversized /
    corrupt header, or the end of the stream inside a frame) gets one
    too, also in its turn, and then the connection is closed, since the
    byte stream past it can no longer be trusted.  On stdio that
    connection is the only one, so {!run} re-raises it.

    A connection whose descriptor reports [EBADF] to [read] or [write]
    (one open in the wrong mode) ends like the end of its stream; the
    other connections carry on.  On stdio, {!run} first checks that
    stdin and stdout are open, and raises {!Closed_descriptor} if one
    is not or if one reported [EBADF].

    A [shutdown] request is answered like any other, with the rest of its
    batch, then the loop closes all connections and returns.  The loop
    also returns once no listener and no connection is left: on stdio, at
    the end of stdin. *)

type transport =
  | Unix_socket of string
      (** Path to bind; an existing socket file is unlinked first, and
          the file is removed again on exit. *)
  | Stdio  (** Serve one client over stdin/stdout. *)

exception Closed_descriptor of string
(** On stdio, ["stdin"] or ["stdout"]: that descriptor was not open,
    or reported [EBADF]. *)

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
    (bind, accept, close, shutdown) for the caller to log.  Replies on
    stdio are written to descriptor 1 directly, bypassing the [stdout]
    channel.

    @raise Unix.Unix_error from [socket], [bind] or [listen] when the
    socket path cannot be listened on, before anything is served.

    @raise Frame.Bad_frame on stdio transport, after answering the bad
    frame with an [id = -1] error (the command-line daemon exits 1).

    @raise Closed_descriptor on stdio transport, when stdin or stdout is
    not open (the command-line daemon exits 2).

    Sets SIGPIPE to ignored for the whole process before serving, so a
    client that disconnects with responses still pending makes the write
    fail with [EPIPE] (dropped for that connection) instead of killing
    the daemon. *)
