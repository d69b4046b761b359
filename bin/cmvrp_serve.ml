(* Oracle-as-a-service front end.

   Subcommands:
     daemon  — serve oracle queries over a Unix socket (or stdio) using
               the length-prefixed JSON protocol of docs/SERVING.md
     loadgen — replay a seeded query mix against a daemon (or an
               in-process engine) and report latency/throughput/cache
               statistics; with --check, verify every answer against a
               fresh oracle call and exit non-zero on any mismatch

   The CI serve-smoke step is exactly:
     cmvrp_serve daemon --socket S &
     cmvrp_serve loadgen --socket S --mix repeat-heavy --queries 1000 \
       --check --min-hit-rate 0.5 --shutdown *)

open Cmdliner

let workers_term =
  let doc = "Width of the oracle Domain pool (1 = sequential)." in
  Arg.(value & opt int Pool.default_workers & info [ "workers"; "j" ] ~doc)

let cache_entries_term =
  let doc = "Result-cache size in entries (FIFO eviction)." in
  Arg.(value & opt int 4096 & info [ "cache-entries" ] ~doc)

let max_sessions_term =
  let doc = "Most live streaming sessions before LRU eviction." in
  Arg.(value & opt int 64 & info [ "max-sessions" ] ~doc)

let socket_term =
  let doc = "Path of the daemon's Unix socket." in
  Arg.(value & opt (some string) None & info [ "socket"; "s" ] ~doc)

(* --- daemon --- *)

let daemon_cmd =
  let stdio =
    Arg.(value & flag & info [ "stdio" ] ~doc:"Serve one client over stdin/stdout.")
  in
  let max_batch =
    let doc = "Most requests handed to the engine per batch." in
    Arg.(value & opt int Daemon.default_max_batch & info [ "max-batch" ] ~doc)
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress lifecycle notes on stderr.")
  in
  let run socket stdio workers cache_entries max_sessions max_batch quiet =
    let transport =
      match (socket, stdio) with
      | Some _, true ->
          prerr_endline "cmvrp_serve daemon: --socket and --stdio are exclusive";
          exit 2
      | Some path, false -> Daemon.Unix_socket path
      | None, true -> Daemon.Stdio
      | None, false ->
          prerr_endline "cmvrp_serve daemon: need --socket PATH or --stdio";
          exit 2
    in
    if workers < 1 || cache_entries < 1 || max_sessions < 1 || max_batch < 1
    then begin
      prerr_endline
        "cmvrp_serve daemon: --workers, --cache-entries, --max-sessions and --max-batch must be positive";
      exit 2
    end;
    Pool.set_workers workers;
    let trace =
      if quiet then fun (_ : string) -> ()
      else fun msg -> Printf.eprintf "[cmvrp_serve] %s\n%!" msg
    in
    match
      Daemon.run ~trace
        (Daemon.config ~cache_capacity:cache_entries ~max_sessions ~max_batch
           transport)
    with
    | () -> ()
    | exception Frame.Bad_frame msg ->
        Printf.eprintf "cmvrp_serve daemon: bad frame: %s\n%!" msg;
        exit 1
    | exception Daemon.Closed_descriptor name ->
        Printf.eprintf "cmvrp_serve daemon: %s is not open\n%!" name;
        exit 2
    | exception Unix.Unix_error (e, ("socket" | "bind" | "listen"), _) ->
        Printf.eprintf "cmvrp_serve daemon: cannot listen on %s: %s\n%!"
          (Option.value socket ~default:"") (Unix.error_message e);
        exit 2
  in
  let doc = "Run the oracle daemon." in
  Cmd.v
    (Cmd.info "daemon" ~doc)
    Term.(
      const run $ socket_term $ stdio $ workers_term $ cache_entries_term
      $ max_sessions_term $ max_batch $ quiet)

(* --- loadgen --- *)

let print_stats (s : Loadgen.stats) =
  Printf.printf "queries     %d sent, %d completed, %d error responses\n"
    s.Loadgen.sent s.Loadgen.completed s.Loadgen.error_responses;
  Printf.printf "cache       %d served from cache (hit rate %.3f)\n"
    s.Loadgen.cached_responses s.Loadgen.hit_rate;
  Printf.printf "throughput  %.1f queries/s over %.3f s\n"
    s.Loadgen.throughput_qps (s.Loadgen.wall_ns *. 1e-9);
  Printf.printf "latency     p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n"
    (s.Loadgen.p50_ns *. 1e-6) (s.Loadgen.p95_ns *. 1e-6)
    (s.Loadgen.p99_ns *. 1e-6)

let loadgen_cmd =
  let mix =
    let doc = "Query mix: repeat-heavy | churn | cold-miss." in
    Arg.(value & opt string "repeat-heavy" & info [ "mix"; "m" ] ~doc)
  in
  let queries =
    Arg.(value & opt int 1000 & info [ "queries"; "n" ] ~doc:"Number of queries.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients"; "c" ] ~doc:"Concurrent connections.")
  in
  let window =
    Arg.(value & opt int 8 & info [ "window"; "w" ] ~doc:"In-flight requests per client.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Mix generator seed.") in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Re-verify every answer against a fresh oracle call (bit-identical).")
  in
  let min_hit_rate =
    let doc = "Fail unless the cache hit rate reaches this fraction." in
    Arg.(value & opt (some float) None & info [ "min-hit-rate" ] ~doc)
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Send a shutdown request when done.")
  in
  let in_process =
    Arg.(
      value & flag
      & info [ "in-process" ]
          ~doc:"Skip the socket: run the mix against an in-process engine.")
  in
  let run socket mix queries clients window seed check min_hit_rate shutdown
      in_process workers cache_entries =
    (match (socket, in_process) with
    | None, false ->
        prerr_endline "cmvrp_serve loadgen: need --socket PATH or --in-process";
        exit 2
    | _ -> ());
    if queries < 1 || clients < 1 || window < 1 then begin
      prerr_endline "cmvrp_serve loadgen: --queries, --clients and --window must be positive";
      exit 2
    end;
    let mix =
      match Loadgen.mix_of_string mix with
      | Ok m -> m
      | Error e ->
          prerr_endline ("cmvrp_serve loadgen: " ^ e);
          exit 2
    in
    Pool.set_workers workers;
    let reqs = Loadgen.queries ~seed ~mix ~n:queries in
    let result =
      if in_process then
        Loadgen.replay_engine ~check
          (Engine.create ~cache_capacity:cache_entries ())
          reqs
      else
        let socket = Option.get socket in
        let r = Loadgen.replay_socket ~check ~socket ~clients ~window reqs in
        (if shutdown then
           match Loadgen.send_shutdown ~socket () with
           | Ok () -> ()
           | Error e -> Printf.eprintf "cmvrp_serve loadgen: shutdown: %s\n%!" e);
        r
    in
    match result with
    | Error e ->
        Printf.eprintf "cmvrp_serve loadgen: %s\n%!" e;
        exit 1
    | Ok stats -> (
        print_stats stats;
        if stats.Loadgen.error_responses > 0 then begin
          prerr_endline "cmvrp_serve loadgen: daemon returned error responses";
          exit 1
        end;
        match min_hit_rate with
        | Some floor when stats.Loadgen.hit_rate < floor ->
            Printf.eprintf
              "cmvrp_serve loadgen: hit rate %.3f below required %.3f\n%!"
              stats.Loadgen.hit_rate floor;
            exit 1
        | _ -> ())
  in
  let doc = "Replay a seeded query mix and report service statistics." in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ socket_term $ mix $ queries $ clients $ window $ seed $ check
      $ min_hit_rate $ shutdown $ in_process $ workers_term $ cache_entries_term)

let () =
  let doc = "CMVRP oracle serving daemon and load generator." in
  let info = Cmd.info "cmvrp_serve" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ daemon_cmd; loadgen_cmd ]))
