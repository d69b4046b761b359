(* serve-hot and serve-cold: a real cmvrp_serve daemon child process on a
   Unix socket, driven closed-loop by this process.

   The client never blocks on a write: sockets are non-blocking and one
   [Unix.select] waits on both the read and the write sets, so a daemon
   that stops reading (its own writes block) cannot wedge the generator.
   A phase that sees no progress for [stall_timeout] seconds is abandoned
   and its unanswered requests count as failed.  Every daemon this module
   starts is killed, reaped and its socket unlinked on every exit path
   ([at_exit], and [exit] from the signal handlers run.ml installs). *)

type mix = Hot | Cold

let mix_name = function Hot -> "serve-hot" | Cold -> "serve-cold"

type sizes = {
  distinct : int;  (** requests generated; phases cycle through them *)
  warmup : int;
      (** untimed requests ending each set-up; past the daemon's 4096-entry
          cache for the cold mix, so the timed phase starts on a full cache
          and a heap that no longer grows *)
  latency_reqs : int;  (** per round: 1 connection, window 1 *)
  throughput_reqs : int;  (** per round: 2 connections, [window] deep *)
  samples : int;  (** responses verified against [Engine.evaluate] *)
  pings : int;  (** traced run: pings against the live daemon *)
  replay : int;  (** traced run: requests per in-process pass *)
}

let default_sizes = function
  | Hot ->
      {
        distinct = 32_000;
        warmup = 4_000;
        latency_reqs = 5_000;
        throughput_reqs = 20_000;
        samples = 2_000;
        pings = 2_000;
        replay = 10_000;
      }
  | Cold ->
      {
        distinct = 24_000;
        warmup = 6_000;
        latency_reqs = 1_500;
        throughput_reqs = 3_000;
        samples = 2_000;
        pings = 2_000;
        replay = 3_000;
      }

let stall_timeout = 30.0
let clients = 2

(* Throughput-phase pipeline depth per connection: with 2 x 64 requests
   in flight the daemon always drains a full [Daemon.default_max_batch]
   batch, so a round's throughput does not hinge on how the scheduler
   happens to interleave client and daemon. *)
let window = 64

(* The hot mix interleaves [hot_pools] independent Loadgen repeat-heavy
   streams (eight demand sets each), so a run's request sizes average
   over many pools and do not hinge on one seed's eight draws.  The cold
   mix is Loadgen's cold-miss stream: a fresh demand per request. *)
let hot_pools = 16

let requests mix ~seed ~n =
  match mix with
  | Cold -> Loadgen.queries ~seed ~mix:Loadgen.Cold_miss ~n
  | Hot ->
      let per = (n + hot_pools - 1) / hot_pools in
      let pools =
        Array.init hot_pools (fun k ->
            Loadgen.queries ~seed:((seed * hot_pools) + k)
              ~mix:Loadgen.Repeat_heavy ~n:per)
      in
      Array.init n (fun id ->
          let r = pools.(id mod hot_pools).(id / hot_pools) in
          Protocol.request ~id r.Protocol.op r.Protocol.demand)

(* --- the daemon child --- *)

type daemon = {
  pid : int;
  socket : string;
  err_path : string;
  mutable reaped : bool;
}

let live = ref []
let spawned = ref 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
let unlink_quietly p = try Unix.unlink p with Unix.Unix_error (_, _, _) -> ()

let daemon_stderr d =
  match In_channel.with_open_bin d.err_path In_channel.input_all with
  | s -> String.trim s
  | exception Sys_error _ -> ""

let stop d =
  if not d.reaped then begin
    d.reaped <- true;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error (_, _, _) -> ());
    let err = daemon_stderr d in
    if err <> "" then Printf.eprintf "daemon %d stderr:\n%s\n%!" d.pid err;
    unlink_quietly d.socket;
    unlink_quietly d.err_path;
    live := List.filter (fun x -> x != d) !live
  end

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~exe ~dir =
  incr spawned;
  let tag = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !spawned in
  let socket = Filename.concat dir (tag ^ ".sock") in
  let err_path = Filename.concat dir (tag ^ ".err") in
  unlink_quietly socket;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile err_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let args =
    [| exe; "daemon"; "--socket"; socket; "--workers"; "1"; "--quiet" |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> close_quietly null; close_quietly err)
      (fun () -> Unix.create_process exe args null null err)
  in
  let d = { pid; socket; err_path; reaped = false } in
  live := d :: !live;
  d

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.reaped <- true;
      true

(* --- client connections --- *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable out : string;  (** bytes from [off] on are not yet written *)
  mutable off : int;
  inflight : (int * float) Queue.t;  (** script index, time queued *)
}

let connect d =
  let deadline = Metrics.now_ns () +. 10e9 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
        Unix.set_nonblock fd;
        { fd; dec = Frame.decoder (); out = ""; off = 0; inflight = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        close_quietly fd;
        if exited d then
          failwith ("daemon exited before accepting connections: " ^ daemon_stderr d)
        else if Metrics.now_ns () > deadline then
          failwith "daemon did not accept a connection within 10 s"
        else begin
          Unix.sleepf 0.001;
          go ()
        end
  in
  go ()

let disconnect c = close_quietly c.fd

let flush c =
  let len = String.length c.out in
  let rec go () =
    if c.off < len then
      match Unix.single_write_substring c.fd c.out c.off (len - c.off) with
      | k ->
          c.off <- c.off + k;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let enqueue c frame =
  if c.off >= String.length c.out then c.out <- frame
  else c.out <- String.sub c.out c.off (String.length c.out - c.off) ^ frame;
  c.off <- 0

(* What a phase sends: pre-encoded frames and the ids their responses
   must echo. *)
type script = { frames : string array; ids : int array }

let script_of reqs =
  {
    frames = Array.map (fun r -> Frame.encode (Protocol.request_to_string r)) reqs;
    ids = Array.map (fun r -> r.Protocol.id) reqs;
  }

type phase = {
  latencies : float array;  (** ns, one per answered request *)
  wall_ns : float;
  answered : int;
  errors : int;  (** error responses and unparseable ones *)
  lost : int;  (** never answered: stall, broken stream, FIFO violation *)
  cached : int;
}

(* Closed loop: requests [first .. first+count-1] (modulo the script)
   are dealt round-robin to [conns], each keeping up to [window] in
   flight.  A latency runs from queueing the request to the read that
   returned its response. *)
let exchange script conns ~window ~first ~count ~on_answer =
  let n = Array.length conns in
  let total = Array.length script.frames in
  let latencies = Array.make count 0.0 in
  let queued = Array.make n 0 in
  let share c = (count - c + n - 1) / n in
  let answered = ref 0 and errors = ref 0 and cached = ref 0 in
  let broken = ref None in
  let fill c =
    let conn = conns.(c) in
    while queued.(c) < share c && Queue.length conn.inflight < window do
      let idx = (first + c + (queued.(c) * n)) mod total in
      enqueue conn script.frames.(idx);
      Queue.push (idx, Metrics.now_ns ()) conn.inflight;
      queued.(c) <- queued.(c) + 1
    done;
    flush conn
  in
  let buf = Bytes.create 65536 in
  let receive c =
    let conn = conns.(c) in
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> broken := Some (Unix.error_message e)
    | 0 -> broken := Some "daemon closed the connection"
    | got -> (
        let t_read = Metrics.now_ns () in
        Frame.feed conn.dec buf 0 got;
        let rec drain () =
          match Frame.next conn.dec with
          | exception Frame.Bad_frame m -> broken := Some ("bad frame: " ^ m)
          | None -> ()
          | Some payload -> (
              match Queue.take_opt conn.inflight with
              | None -> broken := Some "response with nothing in flight"
              | Some (idx, t_sent) -> (
                  latencies.(!answered) <- t_read -. t_sent;
                  incr answered;
                  match Protocol.response_of_string payload with
                  | Error _ ->
                      incr errors;
                      drain ()
                  | Ok resp when resp.Protocol.r_id <> script.ids.(idx) ->
                      broken :=
                        Some
                          (Printf.sprintf "FIFO violation: got id %d, expected %d"
                             resp.Protocol.r_id script.ids.(idx))
                  | Ok resp ->
                      (match resp.Protocol.r_result with
                      | Error _ -> incr errors
                      | Ok a ->
                          if resp.Protocol.r_cached then incr cached;
                          on_answer idx a);
                      drain ()))
        in
        drain ();
        if Option.is_none !broken then fill c)
  in
  let t0 = Metrics.now_ns () in
  Array.iteri (fun c _ -> fill c) conns;
  while !answered < count && Option.is_none !broken do
    let pick p = List.filter_map (fun c -> if p c then Some c.fd else None) (Array.to_list conns) in
    let readers = pick (fun c -> not (Queue.is_empty c.inflight)) in
    let writers = pick (fun c -> c.off < String.length c.out) in
    match Unix.select readers writers [] stall_timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], [], _ ->
        broken := Some (Printf.sprintf "stalled: no progress for %.0f s" stall_timeout)
    | r, w, _ ->
        Array.iteri
          (fun c conn ->
            if List.mem conn.fd w then flush conn;
            if List.mem conn.fd r && Option.is_none !broken then receive c)
          conns
  done;
  let wall_ns = Metrics.now_ns () -. t0 in
  Option.iter (fun m -> Printf.eprintf "%s\n%!" m) !broken;
  {
    latencies = Array.sub latencies 0 !answered;
    wall_ns;
    answered = !answered;
    errors = !errors;
    lost = count - !answered;
    cached = !cached;
  }

let phase_failed p = p.errors + p.lost

(* --- output checks --- *)

(* Request indices [base], [base+every], ... keep their first answer
   for verification after the timed phase. *)
type sample = { base : int; every : int; answers : Protocol.answer option array }

let sampler ~base ~span ~samples =
  let every = max 1 (span / samples) in
  { base; every; answers = Array.make (min samples ((span + every - 1) / every)) None }

let record s idx a =
  let d = idx - s.base in
  if d >= 0 && d mod s.every = 0 then
    let k = d / s.every in
    if k < Array.length s.answers && Option.is_none s.answers.(k) then
      s.answers.(k) <- Some a

let answer_digest h = function
  | Protocol.Value v -> Fnv.add_int (Fnv.add_int h 1) (Int64.to_int (Int64.bits_of_float v))
  | Protocol.Tight_set None -> Fnv.add_int h 2
  | Protocol.Tight_set (Some (pts, v)) ->
      let h = List.fold_left (fun h p -> Array.fold_left Fnv.add_int h p) (Fnv.add_int h 3) pts in
      Fnv.add_int h (Int64.to_int (Int64.bits_of_float v))
  | Protocol.Pong -> Fnv.add_int h 4

(* (verified, mismatches, digest): each kept answer against a fresh
   oracle call, bit for bit. *)
let verify s reqs =
  let verified = ref 0 and bad = ref 0 and digest = ref Fnv.basis in
  Array.iteri
    (fun k a ->
      match a with
      | None -> ()
      | Some a ->
          incr verified;
          digest := answer_digest (Fnv.add_int !digest k) a;
          (match Engine.evaluate reqs.(s.base + (k * s.every)) with
          | Ok e when Protocol.answer_equal a e -> ()
          | _ -> incr bad))
    s.answers;
  (!verified, !bad, !digest)

(* --- set-up --- *)

type live_setup = {
  daemon : daemon;
  c0 : conn;
  c1 : conn;
  reqs : Protocol.request array;
  script : script;
  warm_failed : int;
}

let ping_script =
  script_of [| Protocol.request ~id:0 Protocol.Ping (Demand_map.empty 2) |]

(* Start the daemon and wait for its first pong, generate and encode the
   requests, then one untimed warm-up at the throughput pattern over the
   [sizes.warmup] requests that end at [until] — the ones the timed
   phase, starting at [until], reaches last. *)
let setup ~exe ~dir mix sizes ~seed ~until =
  let daemon = spawn ~exe ~dir in
  let c0 = connect daemon in
  let pong = exchange ping_script [| c0 |] ~window:1 ~first:0 ~count:1 ~on_answer:(fun _ _ -> ()) in
  if pong.answered <> 1 || pong.errors > 0 then failwith "daemon did not answer its first ping";
  let reqs = requests mix ~seed ~n:sizes.distinct in
  let script = script_of reqs in
  let c1 = connect daemon in
  let warm =
    exchange script [| c0; c1 |] ~window ~first:(until - sizes.warmup) ~count:sizes.warmup
      ~on_answer:(fun _ _ -> ())
  in
  { daemon; c0; c1; reqs; script; warm_failed = phase_failed warm }

let teardown s =
  disconnect s.c0;
  disconnect s.c1;
  stop s.daemon

(* --- the timed run --- *)

(* The run is [segments] set-up + measure segments, each on a fresh
   daemon: the median round of one daemon process differed from that of
   the next by up to 7% on the same machine, so rounds are spread over
   several.  [setup_s] is the median set-up time of the segments. *)
let segments = 3

let measure ~exe ~dir mix sizes ~seed ~seconds =
  let sample = sampler ~base:0 ~span:sizes.distinct ~samples:sizes.samples in
  let on_answer = record sample in
  let setup_times = Array.make segments 0.0 and rss = Array.make segments 0.0 in
  let p50 = ref [] and p90 = ref [] and p99 = ref [] and ops = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let answered = ref 0 and cached = ref 0 in
  let reqs = ref [||] and cursor = ref sizes.warmup in
  for seg = 0 to segments - 1 do
    let t0 = Metrics.now_ns () in
    let s = setup ~exe ~dir mix sizes ~seed ~until:!cursor in
    setup_times.(seg) <- (Metrics.now_ns () -. t0) /. 1e9;
    reqs := s.reqs;
    attempted := !attempted + sizes.warmup;
    failed := !failed + s.warm_failed;
    let rounds = ref 0 in
    let failed_before = !failed in
    let t_start = Metrics.now_ns () in
    while
      (!rounds = 0 || Metrics.now_ns () -. t_start < seconds /. float_of_int segments *. 1e9)
      && !failed = failed_before
    do
      incr rounds;
      let lat =
        exchange s.script [| s.c0 |] ~window:1 ~first:!cursor ~count:sizes.latency_reqs
          ~on_answer
      in
      cursor := !cursor + sizes.latency_reqs;
      let thr =
        exchange s.script [| s.c0; s.c1 |] ~window ~first:!cursor ~count:sizes.throughput_reqs
          ~on_answer
      in
      cursor := !cursor + sizes.throughput_reqs;
      List.iter
        (fun p ->
          attempted := !attempted + p.answered + p.lost;
          failed := !failed + phase_failed p;
          answered := !answered + p.answered;
          cached := !cached + p.cached)
        [ lat; thr ];
      if lat.answered > 0 then begin
        let sorted = Quantile.sorted lat.latencies in
        p50 := Quantile.exact_sorted sorted 0.50 :: !p50;
        p90 := Quantile.exact_sorted sorted 0.90 :: !p90;
        p99 := Quantile.exact_sorted sorted 0.99 :: !p99
      end;
      ops := (float_of_int thr.answered /. (thr.wall_ns /. 1e9)) :: !ops
    done;
    rss.(seg) <- Probe.peak_rss_mb (Some s.daemon.pid);
    teardown s
  done;
  let verified, bad, digest = verify sample !reqs in
  let med l = Quantile.median (Array.of_list l) in
  Printf.printf
    "%s: %d rounds on %d daemons, hit ratio %.4f, median round of %d latency \
     samples p90 %.1f us p99 %.1f us (not gated), %d/%d sampled answers \
     verified, answer digest %016x\n"
    (mix_name mix) (List.length !ops) segments
    (float_of_int !cached /. float_of_int (max 1 !answered))
    sizes.latency_reqs (med !p90 /. 1e3) (med !p99 /. 1e3) (verified - bad) verified digest;
  {
    Report.attempted = !attempted;
    failed = !failed + bad;
    metrics =
      [
        ("setup_s", Quantile.median setup_times);
        ("latency_p50_us", med !p50 /. 1e3);
        ("ops_per_s", med !ops);
        ("peak_rss_mb", Quantile.median rss);
      ];
    missing = [];
  }

(* --- the traced run --- *)

(* The batch the daemon drains in the throughput phase. *)
let batch = Daemon.default_max_batch

type pass = {
  wall : float;
  gc_before : Probe.gc;
  gc_after : Probe.gc;
  deltas : int option array;  (** [Report.oracle_counters], engine only *)
  hits : int;
  misses : int;
  failed : int;
}

(* One in-process pass over [reqs.(first .. first+count-1)] through every
   layer a request crosses on the wire, client encode to client decode,
   on a fresh engine warmed with the same requests the daemon was.  The
   oracle call behind each cache miss is repeated outside the engine,
   timed, and compared with the served answer; [engine.self_ns] is the
   engine's time minus those calls.  With [Spans.off] the same work runs
   unrecorded. *)
let replay_pass sp ~traced reqs ~warmup ~first ~count ~on_answer =
  let engine = Engine.create () in
  let rec warm i =
    if i < warmup then begin
      let k = min batch (warmup - i) in
      ignore (Engine.process_batch engine (Array.sub reqs i k));
      warm (i + k)
    end
  in
  warm 0;
  let counters = Array.of_list Report.oracle_counters in
  let deltas = Array.make (Array.length counters) (Some 0) in
  let dec = Frame.decoder () in
  let hits = ref 0 and misses = ref 0 and failed = ref 0 in
  let layer parent name f =
    let id = Spans.enter sp ~parent name in
    let r = f () in
    Spans.leave sp id;
    r
  in
  let through_wire parent to_string of_string x =
    let id = Spans.enter sp ~parent "protocol.encode" in
    let payload = to_string x in
    Spans.leave sp id;
    let id = Spans.enter sp ~parent "frame.encode" in
    let frame = Frame.encode payload in
    Spans.leave sp id;
    let id = Spans.enter sp ~parent "frame.decode" in
    Frame.feed_string dec frame;
    let payload = Frame.next dec in
    Spans.leave sp id;
    let id = Spans.enter sp ~parent "protocol.decode" in
    let r = of_string (Option.get payload) in
    Spans.leave sp id;
    r
  in
  let gc_before = Probe.gc () in
  let t0 = Metrics.now_ns () in
  let i = ref first in
  while !i < first + count do
    let k = min batch (first + count - !i) in
    let b = Spans.enter sp ~parent:Spans.none "serve.batch" in
    let decoded =
      Array.init k (fun j ->
          match
            through_wire b Protocol.request_to_string Protocol.request_of_string
              reqs.(!i + j)
          with
          | Ok r -> r
          | Error m -> failwith ("request did not survive the codec: " ^ m))
    in
    Array.iter
      (fun r ->
        let id = Spans.enter sp ~parent:b "protocol.digest" in
        ignore (Protocol.demand_digest r.Protocol.demand);
        Spans.leave sp id)
      decoded;
    let before = if traced then Probe.read_counters counters else [||] in
    let resps = layer b "engine.process_batch" (fun () -> Engine.process_batch engine decoded) in
    if traced then Probe.accumulate deltas ~before ~after:(Probe.read_counters counters);
    Array.iteri
      (fun j (resp : Protocol.response) ->
        let r = decoded.(j) in
        (match resp.Protocol.r_result with
        | Error _ -> incr failed
        | Ok a when resp.Protocol.r_cached ->
            incr hits;
            on_answer (!i + j) a
        | Ok a ->
            incr misses;
            on_answer (!i + j) a;
            let again =
              match r.Protocol.op with
              | Protocol.Witness ->
                  layer b "oracle.witness" (fun () ->
                      Protocol.Tight_set (Oracle.witness r.Protocol.demand))
              | _ ->
                  layer b "oracle.omega_star" (fun () ->
                      Protocol.Value (Oracle.omega_star r.Protocol.demand))
            in
            if not (Protocol.answer_equal a again) then incr failed);
        match through_wire b Protocol.response_to_string Protocol.response_of_string resp with
        | Ok back when back.Protocol.r_id = resp.Protocol.r_id -> ()
        | _ -> incr failed)
      resps;
    Spans.leave sp b;
    i := !i + k
  done;
  let wall = Metrics.now_ns () -. t0 in
  { wall; gc_before; gc_after = Probe.gc (); deltas; hits = !hits; misses = !misses; failed = !failed }

let trace_run ~exe ~dir ~trace_path mix sizes ~seed =
  let s = setup ~exe ~dir mix sizes ~seed ~until:sizes.warmup in
  let ping =
    exchange ping_script [| s.c0 |] ~window:1 ~first:0 ~count:sizes.pings
      ~on_answer:(fun _ _ -> ())
  in
  teardown s;
  (* Every answer of the traced pass is verified. *)
  let sample = sampler ~base:sizes.warmup ~span:sizes.replay ~samples:sizes.replay in
  let pass sp ~traced =
    replay_pass sp ~traced s.reqs ~warmup:sizes.warmup ~first:sizes.warmup
      ~count:sizes.replay ~on_answer:(fun idx a -> if traced then record sample idx a)
  in
  let plain = pass (Spans.off ()) ~traced:false in
  let sp = Spans.create (sizes.replay * 12) in
  let p = pass sp ~traced:true in
  Spans.write_chrome sp trace_path;
  let verified, bad, digest = verify sample s.reqs in
  let tbl = Spans.summarize sp in
  let per_req name = (Spans.summary tbl name).Spans.total_ns /. float_of_int sizes.replay in
  let oracle_ns =
    (Spans.summary tbl "oracle.omega_star").Spans.total_ns
    +. (Spans.summary tbl "oracle.witness").Spans.total_ns
  in
  let counters, missing = Report.oracle_metrics p.deltas ~ops:sizes.replay in
  Printf.printf
    "%s traced: %d requests replayed in-process (%d hits, %d misses), %d pings, \
     %d/%d sampled answers verified, answer digest %016x, %d spans (%d dropped) in %s\n"
    (mix_name mix) sizes.replay p.hits p.misses ping.answered (verified - bad) verified digest
    sp.Spans.len sp.Spans.dropped trace_path;
  {
    Report.attempted = sizes.pings + (2 * sizes.replay);
    failed = phase_failed ping + plain.failed + p.failed + bad;
    metrics =
      [
        ("daemon.ping_rtt_us", Quantile.median ping.latencies /. 1e3);
        ("frame.encode_ns", per_req "frame.encode");
        ("frame.decode_ns", per_req "frame.decode");
        ("protocol.encode_ns", per_req "protocol.encode");
        ("protocol.decode_ns", per_req "protocol.decode");
        ("protocol.digest_ns", per_req "protocol.digest");
        ( "engine.self_ns",
          ((Spans.summary tbl "engine.process_batch").Spans.total_ns -. oracle_ns)
          /. float_of_int sizes.replay );
        ("qcache.hit_ratio", float_of_int p.hits /. float_of_int (max 1 (p.hits + p.misses)));
        ("oracle.omega_star_ns", Spans.mean_ns tbl "oracle.omega_star");
        ("oracle.witness_ns", Spans.mean_ns tbl "oracle.witness");
        ("trace.coverage", Spans.total_self sp /. p.wall);
        ("trace.overhead_frac", (p.wall /. plain.wall) -. 1.0);
      ]
      @ counters
      @ Probe.gc_metrics ~before:p.gc_before ~after:p.gc_after ~ops:sizes.replay;
    missing;
  }

let run ?sizes ~exe ~dir ~trace_path mix ~seed ~seconds =
  let sizes = Option.value sizes ~default:(default_sizes mix) in
  match trace_path with
  | None -> measure ~exe ~dir mix sizes ~seed ~seconds
  | Some trace_path -> trace_run ~exe ~dir ~trace_path mix sizes ~seed
