let m_conns = Metrics.gauge "daemon.connections"
let m_accepted = Metrics.counter "daemon.accepts"
let m_bad_frames = Metrics.counter "daemon.bad_frames"

type transport = Unix_socket of string | Stdio

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

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable alive : bool;
  mutable hanging_up : bool;
      (* a bad header's error is queued: close once the queue is answered *)
}

(* Blocking write of a whole frame; small responses, prompt readers. *)
let send_all fd payload =
  let s = Frame.encode payload in
  let len = String.length s in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write_substring fd s !off (len - !off)
    done
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let send_response conn resp =
  if conn.alive then send_all conn.fd (Protocol.response_to_string resp)

let parse_error_response msg =
  { Protocol.r_id = -1; r_cached = false; r_result = Error msg; r_encoded = None }

(* Drain every complete frame the decoder holds into the pending queue,
   decoded: a frame that fails to parse as a request is answered with an
   id = -1 error in its turn, after the requests sent before it. *)
let drain_frames conn pending =
  let continue = ref true in
  while !continue do
    match Frame.next conn.dec with
    | None -> continue := false
    | Some payload -> Queue.push (conn, Protocol.request_of_string payload) pending
  done

let read_chunk_size = 65536

(* Read once from a ready connection; false when the peer is gone.  A
   bad header queues its error behind the frames decoded before it and
   marks the connection to be closed once that error has been answered:
   the byte stream past it cannot be trusted, but the requests sent
   before it are still owed their replies. *)
let pump_conn conn pending buf =
  match Unix.read conn.fd buf 0 read_chunk_size with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  | 0 -> false
  | n -> (
      Frame.feed conn.dec buf 0 n;
      match drain_frames conn pending with
      | () -> true
      | exception Frame.Bad_frame msg ->
          Metrics.incr m_bad_frames;
          Queue.push (conn, Error ("bad frame: " ^ msg)) pending;
          conn.hanging_up <- true;
          true)

(* Feed the pending queue to the engine, [max_batch] at a time, sending
   each response to its connection as soon as its batch completes.
   Returns true if a shutdown request was served. *)
let drain_pending engine max_batch pending =
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
        send_response conn
          (match decoded with
          | Ok _ ->
              incr answered;
              responses.(!answered - 1)
          | Error msg -> parse_error_response msg))
      owners
  done;
  !saw_shutdown

let close_quietly fd =
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let run_socket ~trace cfg path =
  let engine = Engine.create ~cache_capacity:cfg.cache_capacity ~max_sessions:cfg.max_sessions () in
  (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  trace ("listening on " ^ path);
  let conns = ref [] in
  let pending = Queue.create () in
  let buf = Bytes.create read_chunk_size in
  let running = ref true in
  while !running do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.memq listen_fd ready then begin
          let fd, _ = Unix.accept listen_fd in
          Metrics.incr m_accepted;
          conns :=
            { fd; dec = Frame.decoder (); alive = true; hanging_up = false }
            :: !conns;
          Metrics.set_gauge m_conns (float_of_int (List.length !conns));
          trace "accepted connection"
        end;
        let hang_up conn =
          conn.alive <- false;
          close_quietly conn.fd;
          trace "connection closed"
        in
        List.iter
          (fun conn ->
            if conn.alive && List.memq conn.fd ready then
              if not (pump_conn conn pending buf) then hang_up conn)
          !conns;
        if drain_pending engine cfg.max_batch pending then running := false;
        (* the queue is empty now, so every bad header has been answered *)
        List.iter (fun c -> if c.alive && c.hanging_up then hang_up c) !conns;
        let before = List.length !conns in
        conns := List.filter (fun c -> c.alive) !conns;
        if List.length !conns <> before then
          Metrics.set_gauge m_conns (float_of_int (List.length !conns))
  done;
  trace "shutting down";
  List.iter (fun c -> if c.alive then close_quietly c.fd) !conns;
  close_quietly listen_fd;
  (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())

let run_stdio ~trace cfg =
  let engine = Engine.create ~cache_capacity:cfg.cache_capacity ~max_sessions:cfg.max_sessions () in
  trace "serving on stdio";
  let running = ref true in
  while !running do
    match Frame.read stdin with
    | exception (Frame.Bad_frame msg as bad) ->
        (* The stream cannot be resynchronised: answer as the socket path
           does, then give up on it. *)
        Metrics.incr m_bad_frames;
        Frame.write stdout
          (Protocol.response_to_string (parse_error_response ("bad frame: " ^ msg)));
        raise bad
    | None -> running := false
    | Some payload -> (
        match Protocol.request_of_string payload with
        | Error msg ->
            Frame.write stdout
              (Protocol.response_to_string (parse_error_response msg))
        | Ok req ->
            let resp = Engine.process engine req in
            Frame.write stdout (Protocol.response_to_string resp);
            if Engine.wants_shutdown req then running := false)
  done;
  trace "stdio stream ended"

let run ?(trace = fun (_ : string) -> ()) cfg =
  (* A client that disconnects with responses pending must cost an EPIPE
     in [send_all], not the process: SIGPIPE's default action is to die. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match cfg.transport with
  | Unix_socket path -> run_socket ~trace cfg path
  | Stdio -> run_stdio ~trace cfg
