(* The Domain pool facade: results in input order at any width,
   sequential degradation at one worker, and the sequential
   left-to-right exception choice even under parallel execution. *)

let with_workers n f =
  let saved = Pool.workers () in
  Pool.set_workers n;
  Fun.protect ~finally:(fun () -> Pool.set_workers saved) f

exception Boom of int

let test_map_order () =
  List.iter
    (fun w ->
      with_workers w (fun () ->
          let xs = Array.init 37 (fun i -> i) in
          let ys = Pool.map (fun x -> (x * x) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "order at %d workers" w)
            (Array.init 37 (fun i -> (i * i) + 1))
            ys))
    [ 1; 2; 4 ]

let test_map_empty () =
  with_workers 2 (fun () ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map (fun x -> x) [||]))

let test_init () =
  with_workers 3 (fun () ->
      Alcotest.(check (array int))
        "init" [| 0; 1; 4; 9 |]
        (Pool.init 4 (fun i -> i * i));
      Alcotest.(check (array int)) "empty" [||] (Pool.init 0 (fun i -> i));
      match Pool.init (-1) (fun i -> i) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative size must raise")

let test_both () =
  with_workers 2 (fun () ->
      let a, b = Pool.both (fun () -> 6 * 7) (fun () -> "ok") in
      Alcotest.(check int) "left" 42 a;
      Alcotest.(check string) "right" "ok" b)

let test_lowest_exception_wins () =
  List.iter
    (fun w ->
      with_workers w (fun () ->
          match
            Pool.map
              (fun i -> if i = 2 || i = 5 then raise (Boom i) else i)
              (Array.init 8 (fun i -> i))
          with
          | exception Boom i ->
              Alcotest.(check int)
                (Printf.sprintf "lowest index at %d workers" w)
                2 i
          | _ -> Alcotest.fail "expected Boom"))
    [ 1; 3 ]

let test_set_workers_validation () =
  (match Pool.set_workers 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "zero workers must raise");
  Alcotest.(check bool) "default at least one" true (Pool.default_workers >= 1);
  with_workers 5 (fun () ->
      Alcotest.(check int) "width is what was set" 5 (Pool.workers ()))

let test_daemon_concurrent_clients () =
  (* The serving daemon and N pipelined clients, in one process on two
     sides of Pool.both: the daemon thunk blocks in its select loop while
     the client thunk replays a seeded mix over the Unix socket with
     --check semantics (every answer re-verified against a fresh oracle
     call, per-client FIFO order asserted by the replayer).  Pool.both
     joining proves clean shutdown leaks no domain. *)
  with_workers 4 (fun () ->
      let path = Filename.temp_file "cmvrp_pool" ".sock" in
      Sys.remove path;
      let reqs = Loadgen.queries ~seed:9 ~mix:Loadgen.Repeat_heavy ~n:48 in
      let (), result =
        Pool.both
          (fun () ->
            Daemon.run (Daemon.config ~max_batch:8 (Daemon.Unix_socket path)))
          (fun () ->
            Fun.protect
              ~finally:(fun () ->
                ignore (Loadgen.send_shutdown ~socket:path ()))
              (fun () ->
                Loadgen.replay_socket ~check:true ~socket:path ~clients:3
                  ~window:4 reqs))
      in
      match result with
      | Error e -> Alcotest.fail e
      | Ok s ->
          Alcotest.(check int) "all queries answered" 48 s.Loadgen.completed;
          Alcotest.(check int) "no error responses" 0 s.Loadgen.error_responses;
          Alcotest.(check bool) "repeat-heavy mix hits the cache" true
            (s.Loadgen.hit_rate > 0.0);
          Alcotest.(check bool) "daemon removed its socket" true
            (not (Sys.file_exists path)))

let test_daemon_survives_vanished_reader () =
  (* A client pipelines a burst of pings and disconnects without reading
     a single reply, so the daemon writes responses into a closed socket.
     Those writes must fail with EPIPE inside the loop rather than raise
     SIGPIPE, whose default action kills the whole process (this one
     included).  A second client's ping and shutdown are then answered. *)
  with_workers 2 (fun () ->
      let path = Filename.temp_file "cmvrp_pipe" ".sock" in
      Sys.remove path;
      let ping id = Protocol.request ~id Protocol.Ping (Demand_map.empty 1) in
      let burst =
        String.concat ""
          (List.init 2000 (fun i ->
               Frame.encode (Protocol.request_to_string (ping (i + 1)))))
      in
      let hostile () =
        match Loadgen.connect path with
        | Error e -> Error e
        | Ok fd ->
            let off = ref 0 in
            while !off < String.length burst do
              off :=
                !off
                + Unix.write_substring fd burst !off (String.length burst - !off)
            done;
            Unix.close fd;
            Ok ()
      in
      let (), (burst_sent, second, stopped) =
        Pool.both
          (fun () -> Daemon.run (Daemon.config (Daemon.Unix_socket path)))
          (fun () ->
            let burst_sent =
              try hostile ()
              with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
            in
            let second =
              Loadgen.replay_socket ~socket:path ~clients:1 ~window:1
                [| ping 0 |]
            in
            (burst_sent, second, Loadgen.send_shutdown ~socket:path ()))
      in
      Alcotest.(check (result unit string)) "burst written" (Ok ()) burst_sent;
      (match second with
      | Error e -> Alcotest.fail e
      | Ok s ->
          Alcotest.(check int) "second client's ping answered" 1
            s.Loadgen.completed);
      Alcotest.(check (result unit string)) "shutdown answered" (Ok ()) stopped)

(* The ids of the replies on [fd], read until the daemon closes it or
   [limit] have come. *)
let reply_ids ?(limit = max_int) fd =
  let dec = Frame.decoder () and buf = Bytes.create 4096 in
  let rec go acc n =
    if n = limit then Ok (List.rev acc)
    else
      match Frame.next dec with
      | exception Frame.Bad_frame e -> Error ("bad frame from the daemon: " ^ e)
      | Some payload -> (
          match Protocol.response_of_string payload with
          | Ok r -> go (r.Protocol.r_id :: acc) (n + 1)
          | Error e -> Error e)
      | None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Ok (List.rev acc)
          | got ->
              Frame.feed dec buf 0 got;
              go acc n)
  in
  go [] 0

let test_daemon_answers_decode_errors_in_turn () =
  (* One write carries an omega_star request, a frame that does not
     decode and a ping.  An id -1 error can only be matched by its
     position, so the replies must come back as ids 1, -1, 3 — not with
     the error first, ahead of the requests still in the batch queue. *)
  with_workers 2 (fun () ->
      let path = Filename.temp_file "cmvrp_fifo" ".sock" in
      Sys.remove path;
      let omega =
        Protocol.request ~id:1 Protocol.Omega_star
          (Demand_map.of_alist 2 [ ([| 0; 0 |], 5); ([| 1; 2 |], 3) ])
      in
      let ping = Protocol.request ~id:3 Protocol.Ping (Demand_map.empty 2) in
      let wire =
        String.concat ""
          (List.map Frame.encode
             [
               Protocol.request_to_string omega;
               {|{"id":2,"op":"nonsense"|};
               Protocol.request_to_string ping;
             ])
      in
      let client () =
        match Loadgen.connect path with
        | Error e -> Error e
        | Ok fd ->
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                ignore (Unix.write_substring fd wire 0 (String.length wire));
                reply_ids ~limit:3 fd)
      in
      let (), (ids, stopped) =
        Pool.both
          (fun () -> Daemon.run (Daemon.config (Daemon.Unix_socket path)))
          (fun () ->
            let ids =
              try client () with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
            in
            (ids, Loadgen.send_shutdown ~socket:path ()))
      in
      Alcotest.(check (result (list int) string)) "reply ids in request order"
        (Ok [ 1; -1; 3 ]) ids;
      Alcotest.(check (result unit string)) "shutdown answered" (Ok ()) stopped)

let test_daemon_answers_bad_header_after_earlier_requests () =
  (* One write carries an omega_star request, a ping and a header that is
     not digits.  The two requests were decoded before the bad header, so
     their replies are owed: the connection gets ids 1, 3, then the id -1
     bad-frame error, then end of stream. *)
  with_workers 2 (fun () ->
      let path = Filename.temp_file "cmvrp_badhdr" ".sock" in
      Sys.remove path;
      let omega =
        Protocol.request ~id:1 Protocol.Omega_star
          (Demand_map.of_alist 2 [ ([| 0; 0 |], 5); ([| 1; 2 |], 3) ])
      in
      let ping = Protocol.request ~id:3 Protocol.Ping (Demand_map.empty 2) in
      let wire =
        String.concat ""
          (List.map Frame.encode
             [ Protocol.request_to_string omega; Protocol.request_to_string ping ])
        ^ "zz\n"
      in
      let client () =
        match Loadgen.connect path with
        | Error e -> Error e
        | Ok fd ->
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                ignore (Unix.write_substring fd wire 0 (String.length wire));
                reply_ids fd)
      in
      let (), (ids, stopped) =
        Pool.both
          (fun () -> Daemon.run (Daemon.config (Daemon.Unix_socket path)))
          (fun () ->
            let ids =
              try client () with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
            in
            (ids, Loadgen.send_shutdown ~socket:path ()))
      in
      Alcotest.(check (result (list int) string))
        "replies in request order, then end of stream" (Ok [ 1; 3; -1 ]) ids;
      Alcotest.(check (result unit string)) "shutdown answered" (Ok ()) stopped)

let test_daemon_per_client_streams_deterministic () =
  (* Two identical replays against two fresh daemons: the per-request
     response payloads must match run to run (cached flags and answers
     included), because batching order is arrival order and the cache is
     deterministic. *)
  with_workers 3 (fun () ->
      let one tag =
        let path = Filename.temp_file ("cmvrp_det" ^ tag) ".sock" in
        Sys.remove path;
        let reqs = Loadgen.queries ~seed:4 ~mix:Loadgen.Churn ~n:30 in
        let (), result =
          Pool.both
            (fun () ->
              Daemon.run (Daemon.config ~max_batch:4 (Daemon.Unix_socket path)))
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  ignore (Loadgen.send_shutdown ~socket:path ()))
                (fun () ->
                  (* One client, window 1: the response stream is exactly
                     the request stream's answers in order. *)
                  Loadgen.replay_socket ~check:true ~socket:path ~clients:1
                    ~window:1 reqs))
        in
        match result with
        | Error e -> Alcotest.fail e
        | Ok s -> (s.Loadgen.completed, s.Loadgen.cached_responses)
      in
      let a = one "a" and b = one "b" in
      Alcotest.(check (pair int int)) "identical replay outcome" a b)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map on empty input" `Quick test_map_empty;
    Alcotest.test_case "init" `Quick test_init;
    Alcotest.test_case "both" `Quick test_both;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_lowest_exception_wins;
    Alcotest.test_case "set_workers validation" `Quick
      test_set_workers_validation;
    Alcotest.test_case "daemon vs concurrent clients" `Quick
      test_daemon_concurrent_clients;
    Alcotest.test_case "daemon survives a vanished reader" `Quick
      test_daemon_survives_vanished_reader;
    Alcotest.test_case "daemon answers a decode error in its turn" `Quick
      test_daemon_answers_decode_errors_in_turn;
    Alcotest.test_case "daemon answers a bad header after the requests before it"
      `Quick test_daemon_answers_bad_header_after_earlier_requests;
    Alcotest.test_case "daemon response streams deterministic" `Quick
      test_daemon_per_client_streams_deterministic;
  ]
