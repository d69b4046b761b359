let m_queries = Metrics.counter "loadgen.queries"
let m_errors = Metrics.counter "loadgen.errors"
let m_latency = Metrics.histogram "loadgen.latency_ns"

type mix = Repeat_heavy | Churn | Cold_miss

let mix_name = function
  | Repeat_heavy -> "repeat-heavy"
  | Churn -> "churn"
  | Cold_miss -> "cold-miss"

let mix_of_string = function
  | "repeat-heavy" -> Ok Repeat_heavy
  | "churn" -> Ok Churn
  | "cold-miss" -> Ok Cold_miss
  | other ->
      Error
        (Printf.sprintf
           "unknown mix %S (expected repeat-heavy, churn or cold-miss)" other)

let all_mixes = [ Repeat_heavy; Churn; Cold_miss ]

(* --- query generation --- *)

(* Instances are deliberately small (a handful of jobs in a ~5x5 box) so
   a single omega* evaluation is fast: the serving scenarios measure the
   protocol, batching and cache, not oracle depth. *)
let fresh_demand rng =
  let side = Rng.int_in rng 4 6 in
  let box = Box.cube_at_origin ~dim:2 ~side in
  let jobs = Rng.int_in rng 20 60 in
  Workload.demand (Workload.uniform ~rng ~box ~jobs)

(* Mostly omega*, with an occasional witness so both cacheable answer
   shapes flow through the protocol. *)
let pick_op rng =
  if Rng.int rng 8 = 0 then Protocol.Witness else Protocol.Omega_star

let demand_of_window box stream start len =
  let dm = ref (Demand_map.empty (Box.dim box)) in
  for i = start to start + len - 1 do
    dm := Demand_map.add !dm stream.(i) 1
  done;
  !dm

let queries ~seed ~mix ~n =
  let rng = Rng.create seed in
  match mix with
  | Repeat_heavy ->
      let pool = Array.init 8 (fun _ -> fresh_demand rng) in
      Array.init n (fun id ->
          let dm = pool.(Rng.zipf rng ~n:8 ~s:1.1 - 1) in
          Protocol.request ~id (pick_op rng) dm)
  | Churn ->
      let window = 30 in
      let box = Box.cube_at_origin ~dim:2 ~side:5 in
      let volume = Box.volume box in
      (* The window advances every fourth query, so each demand set is
         asked about ~4 times before it mutates away. *)
      let stream =
        Array.init ((n / 4) + window + 1) (fun _ ->
            Box.point_of_index box (Rng.int rng volume))
      in
      Array.init n (fun id ->
          let dm = demand_of_window box stream (id / 4) window in
          Protocol.request ~id (pick_op rng) dm)
  | Cold_miss ->
      Array.init n (fun id ->
          Protocol.request ~id (pick_op rng) (fresh_demand rng))

(* --- stats --- *)

type stats = {
  sent : int;
  completed : int;
  error_responses : int;
  cached_responses : int;
  hit_rate : float;
  wall_ns : float;
  throughput_qps : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
}

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let build_stats ~sent ~error_responses ~cached_responses ~wall_ns latencies =
  let completed = Array.length latencies in
  let sorted = Array.copy latencies in
  Array.sort Float.compare sorted;
  {
    sent;
    completed;
    error_responses;
    cached_responses;
    hit_rate =
      (if completed = 0 then 0.0
       else float_of_int cached_responses /. float_of_int completed);
    wall_ns;
    throughput_qps =
      (if wall_ns <= 0.0 then 0.0
       else float_of_int completed /. (wall_ns *. 1e-9));
    p50_ns = exact_quantile sorted 0.50;
    p95_ns = exact_quantile sorted 0.95;
    p99_ns = exact_quantile sorted 0.99;
  }

(* --- response verification --- *)

let verify_response (req : Protocol.request) (resp : Protocol.response) =
  if resp.Protocol.r_id <> req.Protocol.id then
    Error
      (Printf.sprintf "response id %d does not match request id %d"
         resp.Protocol.r_id req.Protocol.id)
  else
    match resp.Protocol.r_result with
    | Error _ -> Ok () (* counted separately; nothing to cross-check *)
    | Ok answer -> (
        match Engine.evaluate req with
        | Ok expected ->
            if Protocol.answer_equal answer expected then Ok ()
            else
              Error
                (Printf.sprintf
                   "request %d: served answer differs from a fresh oracle call"
                   req.Protocol.id)
        | Error m ->
            Error
              (Printf.sprintf
                 "request %d: daemon succeeded but fresh oracle failed (%s)"
                 req.Protocol.id m))

let tally resp (errors, cached) =
  match resp.Protocol.r_result with
  | Error _ ->
      Metrics.incr m_errors;
      (errors + 1, cached)
  | Ok _ -> (errors, if resp.Protocol.r_cached then cached + 1 else cached)

(* --- in-process replay --- *)

let ( let* ) = Result.bind

let replay_engine ?(check = false) ?(batch = 16) engine reqs =
  if batch <= 0 then Error "batch must be positive"
  else begin
    let n = Array.length reqs in
    let latencies = Array.make n 0.0 in
    let errors = ref 0 and cached = ref 0 in
    let failure = ref None in
    let t0 = Metrics.now_ns () in
    let i = ref 0 in
    while !i < n && Option.is_none !failure do
      let take = min batch (n - !i) in
      let chunk = Array.sub reqs !i take in
      let b0 = Metrics.now_ns () in
      let responses = Engine.process_batch engine chunk in
      let elapsed = Metrics.now_ns () -. b0 in
      Array.iteri
        (fun k resp ->
          Metrics.incr m_queries;
          Metrics.observe m_latency elapsed;
          latencies.(!i + k) <- elapsed;
          let e, c = tally resp (!errors, !cached) in
          errors := e;
          cached := c;
          if check && Option.is_none !failure then
            match verify_response chunk.(k) resp with
            | Ok () -> ()
            | Error m -> failure := Some m)
        responses;
      i := !i + take
    done;
    match !failure with
    | Some m -> Error m
    | None ->
        Ok
          (build_stats ~sent:n ~error_responses:!errors
             ~cached_responses:!cached
             ~wall_ns:(Metrics.now_ns () -. t0)
             latencies)
  end

(* --- socket replay --- *)

let connect ?(attempts = 50) path =
  let rec go k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when k > 1 ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Unix.sleepf 0.1;
        go (k - 1)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
  in
  if attempts <= 0 then Error "attempts must be positive" else go attempts

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

type client = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  queries : Protocol.request array;  (* this client's slice, send order *)
  mutable next_to_send : int;
  inflight : (Protocol.request * float) Queue.t;  (* FIFO: oldest first *)
  mutable received : int;
}

let client_done c =
  c.next_to_send >= Array.length c.queries
  && Queue.is_empty c.inflight

let fill_window window c =
  while
    c.next_to_send < Array.length c.queries
    && Queue.length c.inflight < window
  do
    let req = c.queries.(c.next_to_send) in
    write_all c.fd (Frame.encode (Protocol.request_to_string req));
    Queue.push (req, Metrics.now_ns ()) c.inflight;
    c.next_to_send <- c.next_to_send + 1
  done

let replay_socket ?(check = false) ~socket ~clients ~window reqs =
  if clients <= 0 then Error "clients must be positive"
  else if window <= 0 then Error "window must be positive"
  else begin
    let n = Array.length reqs in
    (* Round-robin deal preserves each client's id order. *)
    let slices =
      Array.init clients (fun c ->
          Array.of_list
            (List.filteri (fun i _ -> i mod clients = c) (Array.to_list reqs)))
    in
    let connected =
      Array.fold_left
        (fun acc slice ->
          let* acc = acc in
          let* fd = connect socket in
          Ok
            ({
               fd;
               dec = Frame.decoder ();
               queries = slice;
               next_to_send = 0;
               inflight = Queue.create ();
               received = 0;
             }
            :: acc))
        (Ok []) slices
    in
    let* cs = connected in
    let cs = Array.of_list (List.rev cs) in
    let close_all () =
      Array.iter
        (fun c ->
          try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
        cs
    in
    let latencies = ref [] in
    let errors = ref 0 and cached = ref 0 and completed = ref 0 in
    let failure = ref None in
    let buf = Bytes.create 65536 in
    let t0 = Metrics.now_ns () in
    Array.iter (fill_window window) cs;
    while
      Option.is_none !failure && not (Array.for_all client_done cs)
    do
      let waiting =
        Array.to_list cs
        |> List.filter_map (fun c ->
               if Queue.is_empty c.inflight then None else Some c.fd)
      in
      match Unix.select waiting [] [] 30.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> failure := Some "timed out waiting for responses (30s)"
      | ready, _, _ ->
          Array.iter
            (fun c ->
              if Option.is_none !failure && List.memq c.fd ready then
                match Unix.read c.fd buf 0 (Bytes.length buf) with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | 0 -> failure := Some "daemon closed the connection early"
                | got -> (
                    Frame.feed c.dec buf 0 got;
                    let continue = ref true in
                    while !continue && Option.is_none !failure do
                      match Frame.next c.dec with
                      | None -> continue := false
                      | exception Frame.Bad_frame m ->
                          failure := Some ("bad frame from daemon: " ^ m)
                      | Some payload -> (
                          match Protocol.response_of_string payload with
                          | Error m ->
                              failure :=
                                Some ("unparseable response: " ^ m)
                          | Ok resp ->
                              if Queue.is_empty c.inflight then
                                failure := Some "response with nothing in flight"
                              else begin
                                let req, sent_at = Queue.pop c.inflight in
                                let lat = Metrics.now_ns () -. sent_at in
                                Metrics.incr m_queries;
                                Metrics.observe m_latency lat;
                                latencies := lat :: !latencies;
                                c.received <- c.received + 1;
                                incr completed;
                                let e, ch = tally resp (!errors, !cached) in
                                errors := e;
                                cached := ch;
                                (* The id check below is the per-client FIFO
                                   assertion: the oldest in-flight request
                                   must be the one answered. *)
                                if resp.Protocol.r_id <> req.Protocol.id then
                                  failure :=
                                    Some
                                      (Printf.sprintf
                                         "FIFO violation: got id %d, expected %d"
                                         resp.Protocol.r_id req.Protocol.id)
                                else if check then
                                  match verify_response req resp with
                                  | Ok () -> ()
                                  | Error m -> failure := Some m
                              end)
                    done;
                    fill_window window c))
            cs
    done;
    let wall_ns = Metrics.now_ns () -. t0 in
    close_all ();
    match !failure with
    | Some m -> Error m
    | None ->
        Ok
          (build_stats ~sent:n ~error_responses:!errors
             ~cached_responses:!cached ~wall_ns
             (Array.of_list !latencies))
  end

let send_shutdown ~socket () =
  let req = Protocol.request ~id:0 Protocol.Shutdown (Demand_map.empty 1) in
  Result.map ignore (replay_socket ~socket ~clients:1 ~window:1 [| req |])
