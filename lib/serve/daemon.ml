let m_conns = Metrics.gauge "daemon.connections"
let m_accepted = Metrics.counter "daemon.accepts"
let m_bad_frames = Metrics.counter "daemon.bad_frames"

type transport = Unix_socket of string | Stdio

exception Closed_descriptor of string

type config = {
  transport : transport;
  cache_capacity : int;
  max_sessions : int;
  max_batch : int;
}

let default_max_batch = 64

let config ?(cache_capacity = 4096) ?(max_sessions = 64)
    ?(max_batch = default_max_batch) transport =
  if max_batch <= 0 then invalid_arg "Daemon.config: max_batch must be positive";
  if max_sessions <= 0 then
    invalid_arg "Daemon.config: max_sessions must be positive";
  { transport; cache_capacity; max_sessions; max_batch }

(* One client of the loop: requests come in on [rd] and replies go out on
   [wr].  A socket is both; the stdio client reads stdin and writes
   stdout. *)
type conn = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  dec : Frame.decoder;
  out : Buffer.t;  (* the replies of the batch being answered *)
  mutable alive : bool;
  mutable bad_frame : string option;
      (* its error is queued: close once the queue is answered *)
  mutable not_open : [ `Input | `Output ] option;
      (* the descriptor that reported EBADF: the connection ends *)
}

let connection rd wr =
  let out = Buffer.create 4096 in
  { rd; wr; dec = Frame.decoder (); out; alive = true; bad_frame = None; not_open = None }

(* Blocking write of [conn]'s replies through [scratch]; small batches,
   prompt readers.  A peer that is gone ([EPIPE], [ECONNRESET]) loses
   them; an output descriptor that is not open ([EBADF]) ends the
   connection. *)
let write_replies conn scratch =
  let len = Buffer.length conn.out and off = ref 0 in
  (try
     while !off < len do
       let n = min (len - !off) (Bytes.length scratch) in
       Buffer.blit conn.out !off scratch 0 n;
       off := !off + Unix.write conn.wr scratch 0 n
     done
   with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error (Unix.EBADF, _, _) -> conn.not_open <- Some `Output);
  Buffer.clear conn.out

let parse_error_response msg =
  { Protocol.r_id = -1; r_cached = false; r_result = Error msg; r_encoded = None }

(* Drain every complete frame the decoder holds into the pending queue,
   decoded: a frame that fails to parse as a request is answered with an
   id = -1 error in its turn, after the requests sent before it. *)
let rec drain_frames conn pending =
  match Frame.next conn.dec with
  | None -> ()
  | Some payload ->
      Queue.push (conn, Protocol.request_of_string payload) pending;
      drain_frames conn pending

let read_chunk_size = 65536

(* Read once from a ready connection; false when the peer is gone or
   the input descriptor is not open.  A bad frame (a bad header, or the
   end of the stream inside a frame) queues its error behind the frames
   decoded before it and marks the connection to be closed once that
   error has been answered: the byte stream past it cannot be trusted,
   but the requests sent before it are still owed their replies. *)
let pump_conn conn pending buf =
  let read () =
    match Unix.read conn.rd buf 0 read_chunk_size with
    | 0 ->
        Frame.finish conn.dec;
        false
    | n ->
        Frame.feed conn.dec buf 0 n;
        drain_frames conn pending;
        true
  in
  match read () with
  | more -> more
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      conn.not_open <- Some `Input;
      false
  | exception Frame.Bad_frame msg ->
      Metrics.incr m_bad_frames;
      Queue.push (conn, Error ("bad frame: " ^ msg)) pending;
      conn.bad_frame <- Some msg;
      true

(* Feed the pending queue to the engine, [max_batch] at a time.  A
   batch's replies go to their connections' buffers in request order,
   and each connection that got one is written once as the batch
   completes.  Returns true if a shutdown request was served. *)
let drain_pending engine max_batch pending scratch =
  let saw_shutdown = ref false in
  while not (Queue.is_empty pending) do
    let take = min max_batch (Queue.length pending) in
    let owners = Array.init take (fun _ -> Queue.pop pending) in
    let reqs =
      Array.to_seq owners
      |> Seq.filter_map (fun (_, decoded) -> Result.to_option decoded)
      |> Array.of_seq
    in
    Array.iter
      (fun r -> if Engine.wants_shutdown r then saw_shutdown := true)
      reqs;
    let responses = Engine.process_batch engine reqs in
    let answered = ref 0 in
    Array.iter
      (fun (conn, decoded) ->
        let resp =
          match decoded with
          | Ok _ ->
              incr answered;
              responses.(!answered - 1)
          | Error msg -> parse_error_response msg
        in
        if conn.alive && Option.is_none conn.not_open then
          Frame.append conn.out (Protocol.response_to_string resp))
      owners;
    (* the first visit writes a connection's replies and empties its buffer *)
    Array.iter (fun (conn, _) -> write_replies conn scratch) owners
  done;
  !saw_shutdown

let close_quietly fd =
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let is_open fd =
  match Unix.fstat fd with
  | _ -> true
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> false

(* The one serving loop, over [listener]'s connections (when there is a
   listener) and [conns].  Returns once a shutdown request has been
   served, or once no listener and no connection is left. *)
let serve ~trace cfg listener conns =
  let engine = Engine.create ~cache_capacity:cfg.cache_capacity ~max_sessions:cfg.max_sessions () in
  let conns = ref conns in
  let pending = Queue.create () in
  let buf = Bytes.create read_chunk_size in
  let running = ref true in
  (* Out of descriptors, [accept] fails while the waiting client keeps
     the listener readable: leave the listener out of the select until a
     connection closes, instead of spinning.  Retry after a quiet second
     too, since with no connection open, or on ENFILE (a system-wide
     limit), no close of ours may come. *)
  let accepting = ref true in
  let publish_count () =
    Metrics.set_gauge m_conns (float_of_int (List.length !conns))
  in
  let accept fd =
    match Unix.accept fd with
    | client, _ ->
        Metrics.incr m_accepted;
        conns := connection client client :: !conns;
        publish_count ();
        trace "accepted connection"
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        accepting := false;
        trace "out of descriptors: not accepting until a connection closes"
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  in
  let hang_up conn =
    conn.alive <- false;
    (* a socket is the loop's to close; stdin and stdout are the process's *)
    if conn.rd == conn.wr then close_quietly conn.rd;
    accepting := true;
    trace "connection closed"
  in
  publish_count ();
  while !running && (Option.is_some listener || not (List.is_empty !conns)) do
    let reading = List.map (fun c -> c.rd) !conns in
    let watched, timeout =
      match listener with
      | Some fd when !accepting -> (fd :: reading, -1.0)
      | Some _ -> (reading, 1.0)
      | None -> (reading, -1.0)
    in
    match Unix.select watched [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> accepting := true
    | ready, _, _ ->
        Option.iter (fun fd -> if List.memq fd ready then accept fd) listener;
        List.iter
          (fun conn ->
            if conn.alive && List.memq conn.rd ready then
              if not (pump_conn conn pending buf) then hang_up conn)
          !conns;
        if drain_pending engine cfg.max_batch pending buf then running := false;
        (* the queue is empty now, so every bad frame has been answered *)
        List.iter
          (fun c ->
            if c.alive && (Option.is_some c.bad_frame || Option.is_some c.not_open)
            then hang_up c)
          !conns;
        let before = List.length !conns in
        conns := List.filter (fun c -> c.alive) !conns;
        if List.length !conns <> before then publish_count ()
  done;
  if not !running then trace "shutting down";
  List.iter (fun c -> if c.alive then hang_up c) !conns

let unlink_quietly path =
  try Unix.unlink path with Unix.Unix_error (_, _, _) -> ()

let listen path =
  unlink_quietly path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  with Unix.Unix_error _ as e ->
    close_quietly fd;
    raise e

let run ?(trace = fun (_ : string) -> ()) cfg =
  (* A client that disconnects with responses pending must cost an EPIPE
     in [write_replies], not the process: SIGPIPE's default action is to die. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match cfg.transport with
  | Unix_socket path ->
      let listener = listen path in
      trace ("listening on " ^ path);
      serve ~trace cfg (Some listener) [];
      close_quietly listener;
      unlink_quietly path
  | Stdio ->
      (* A closed descriptor is the caller's error, seen before serving;
         one open in the wrong mode shows as EBADF on [read] or [write]. *)
      List.iter
        (fun (fd, name) -> if not (is_open fd) then raise (Closed_descriptor name))
        [ (Unix.stdin, "stdin"); (Unix.stdout, "stdout") ];
      trace "serving on stdio";
      let stdio = connection Unix.stdin Unix.stdout in
      serve ~trace cfg None [ stdio ];
      Option.iter (fun msg -> raise (Frame.Bad_frame msg)) stdio.bad_frame;
      Option.iter
        (fun side ->
          raise (Closed_descriptor (match side with `Input -> "stdin" | `Output -> "stdout")))
        stdio.not_open
