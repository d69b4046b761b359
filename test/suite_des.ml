(* The discrete-event simulator: delivery, FIFO per channel, determinism,
   quiescence under handler-driven message chains, and the fault-injection
   layer (drops, dups, delay spikes, partitions, crash/restart, weak
   events, livelock budget, deterministic traces). *)

let drain ?budget ?idle_ok des handler =
  match Des.run_until_quiescent ?budget ?idle_ok des ~handler with
  | Des.Quiescent -> ()
  | Des.Livelock { dispatched; pending } ->
      Alcotest.failf "unexpected livelock: %d dispatched, %d pending"
        dispatched pending

let test_delivers_all () =
  let des = Des.create ~rng:(Rng.create 1) () in
  let got = ref [] in
  for i = 1 to 5 do
    Des.send des ~src:0 ~dst:1 i
  done;
  Alcotest.(check int) "pending before run" 5 (Des.pending des);
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  Alcotest.(check int) "all delivered" 5 (List.length !got);
  Alcotest.(check int) "counter" 5 (Des.messages_delivered des);
  Alcotest.(check int) "nothing pending" 0 (Des.pending des)

let test_fifo_per_channel () =
  let des = Des.create ~rng:(Rng.create 2) () in
  let got = ref [] in
  for i = 1 to 50 do
    Des.send des ~src:0 ~dst:1 i
  done;
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  Alcotest.(check (list int)) "in-order delivery"
    (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_fifo_independent_channels () =
  (* Interleave two channels; each must stay internally ordered. *)
  let des = Des.create ~rng:(Rng.create 3) () in
  let per_channel = Hashtbl.create 4 in
  for i = 1 to 30 do
    Des.send des ~src:0 ~dst:1 i;
    Des.send des ~src:2 ~dst:1 (100 + i)
  done;
  drain des (fun ~time:_ ~src ~dst:_ m ->
      let old = Option.value ~default:[] (Hashtbl.find_opt per_channel src) in
      Hashtbl.replace per_channel src (m :: old));
  let channel src = List.rev (Option.value ~default:[] (Hashtbl.find_opt per_channel src)) in
  Alcotest.(check (list int)) "channel 0" (List.init 30 (fun i -> i + 1)) (channel 0);
  Alcotest.(check (list int)) "channel 2" (List.init 30 (fun i -> 101 + i)) (channel 2)

let test_time_monotone () =
  let des = Des.create ~rng:(Rng.create 4) () in
  let last = ref neg_infinity in
  for i = 1 to 40 do
    Des.send des ~src:(i mod 3) ~dst:((i + 1) mod 3) i
  done;
  drain des (fun ~time ~src:_ ~dst:_ _ ->
      Alcotest.(check bool) "time never goes backwards" true (time >= !last);
      last := time)

let test_handler_chain_extends_run () =
  (* A relay: message k < 9 triggers a send of k+1; quiescence must reach
     the end of the chain. *)
  let des = Des.create ~rng:(Rng.create 5) () in
  let hops = ref 0 in
  Des.send des ~src:0 ~dst:1 0;
  drain des (fun ~time:_ ~src:_ ~dst m ->
      incr hops;
      if m < 9 then Des.send des ~src:dst ~dst:(dst + 1) (m + 1));
  Alcotest.(check int) "ten hops" 10 !hops

let test_send_after_ordering () =
  let des = Des.create ~rng:(Rng.create 6) () in
  let got = ref [] in
  Des.send_after des ~delay:100.0 ~src:0 ~dst:1 `Late;
  Des.send_after des ~delay:0.0 ~src:2 ~dst:1 `Early;
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  Alcotest.(check bool) "delayed message arrives second" true
    (List.rev !got = [ `Early; `Late ])

(* A process's timers are not a channel (src = dst): each fires exactly
   its delay after it was set, so a timer set for +4 after one set for
   +1,600 fires at +4.  A timer draws nothing from the channel RNG: a
   message sent after the timers are set arrives when it would in a
   simulator with no timers.  [Online]'s retries never wait behind a
   pair's deadline on its anchor. *)
let test_self_timers_fire_at_their_own_time () =
  let arrival ~timers =
    let des = Des.create ~rng:(Rng.create 7) () in
    let got = ref [] in
    if timers then begin
      Des.send_after des ~delay:1600.0 ~src:3 ~dst:3 `Deadline;
      Des.send_after des ~delay:4.0 ~src:3 ~dst:3 `Retry;
      Des.send_after des ~delay:4.0 ~src:5 ~dst:5 `Other_process
    end;
    Des.send des ~src:3 ~dst:5 `Message;
    drain des (fun ~time ~src:_ ~dst:_ m -> got := (m, time) :: !got);
    List.rev !got
  in
  let plain = List.assoc `Message (arrival ~timers:false) in
  match arrival ~timers:true with
  | [ (`Message, t); (`Retry, t0); (`Other_process, t1); (`Deadline, t2) ] ->
      Alcotest.(check (float 0.0)) "the message is not delayed by the timers" plain t;
      Alcotest.(check (float 0.0)) "the +4 timer fires at 4" 4.0 t0;
      Alcotest.(check (float 0.0)) "the other process's +4 timer fires at 4" 4.0 t1;
      Alcotest.(check (float 0.0)) "the deadline fires at 1,600" 1600.0 t2
  | _ -> Alcotest.fail "expected the message, both +4 timers, then the +1,600 deadline"

(* A scheduled restart is a timer of the process it restarts, and keeps
   the same rule: it comes at its own time, not after the process's
   earlier timers.  Those died with the crash: a +1,600 timer set before
   it never fires, while one the restart hook sets does, exactly 4 after
   the restart.  [Online] re-arms a pair's deadline on restart, so the
   pair keeps one deadline chain. *)
let test_restart_at_its_own_time () =
  let des = Des.create ~rng:(Rng.create 8) () in
  let restarted = ref [] and got = ref [] in
  Des.set_restart_hook des (fun ~time id ->
      restarted := (time, id) :: !restarted;
      Des.send_after des ~delay:4.0 ~src:id ~dst:id `Rearmed);
  Des.send_after des ~delay:1600.0 ~src:2 ~dst:2 `Deadline;
  Des.crash des 2;
  Des.restart_after des ~delay:10.0 2;
  drain des (fun ~time ~src:_ ~dst:_ m -> got := (m, time) :: !got);
  (match !restarted with
  | [ (t, 2) ] -> Alcotest.(check (float 0.0)) "the restart comes at +10" 10.0 t
  | _ -> Alcotest.fail "restart hook not called exactly once");
  (match !got with
  | [ (`Rearmed, t) ] ->
      Alcotest.(check (float 0.0)) "the re-armed timer fires at +14" 14.0 t
  | _ -> Alcotest.fail "expected only the timer set after the restart");
  Alcotest.(check int) "the timer set before the crash is dropped" 1 (Des.drops des);
  Alcotest.(check int) "nothing left queued" 0 (Des.pending des)

let test_determinism () =
  let trace seed =
    let des = Des.create ~rng:(Rng.create seed) () in
    let out = ref [] in
    for i = 1 to 20 do
      Des.send des ~src:(i mod 4) ~dst:((i * 7) mod 4) i
    done;
    drain des (fun ~time ~src ~dst m -> out := (time, src, dst, m) :: !out);
    !out
  in
  Alcotest.(check bool) "identical seeded traces" true (trace 42 = trace 42);
  Alcotest.(check bool) "different seeds may reorder" true
    (List.length (trace 1) = List.length (trace 2))

let suite =
  [
    Alcotest.test_case "delivers all" `Quick test_delivers_all;
    Alcotest.test_case "fifo per channel" `Quick test_fifo_per_channel;
    Alcotest.test_case "fifo independent channels" `Quick test_fifo_independent_channels;
    Alcotest.test_case "time monotone" `Quick test_time_monotone;
    Alcotest.test_case "handler chain extends run" `Quick test_handler_chain_extends_run;
    Alcotest.test_case "self timers fire at their own time" `Quick
      test_self_timers_fire_at_their_own_time;
    Alcotest.test_case "restart at its own time" `Quick test_restart_at_its_own_time;
    Alcotest.test_case "send_after ordering" `Quick test_send_after_ordering;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]

(* --- appended: configuration edges --- *)

let test_bad_delay_bounds_rejected () =
  Alcotest.check_raises "max < min" (Invalid_argument "Des.create: bad delay bounds")
    (fun () -> ignore (Des.create ~min_delay:2.0 ~max_delay:1.0 ~rng:(Rng.create 0) ()));
  Alcotest.check_raises "negative min" (Invalid_argument "Des.create: bad delay bounds")
    (fun () -> ignore (Des.create ~min_delay:(-0.1) ~max_delay:1.0 ~rng:(Rng.create 0) ()))

let test_negative_delay_rejected () =
  let des = Des.create ~rng:(Rng.create 1) () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Des.send_after: negative delay") (fun () ->
      Des.send_after des ~delay:(-1.0) ~src:0 ~dst:1 ())

let test_self_messages () =
  let des = Des.create ~rng:(Rng.create 2) () in
  let got = ref 0 in
  Des.send des ~src:7 ~dst:7 ();
  drain des (fun ~time:_ ~src ~dst _ ->
      Alcotest.(check int) "src" 7 src;
      Alcotest.(check int) "dst" 7 dst;
      incr got);
  Alcotest.(check int) "delivered" 1 !got

let test_clock_advances_with_delays () =
  let des = Des.create ~min_delay:1.0 ~max_delay:1.0 ~rng:(Rng.create 3) () in
  Des.send_after des ~delay:10.0 ~src:0 ~dst:1 ();
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> ());
  Alcotest.(check bool) "clock past the delay" true (Des.now des >= 11.0)

let suite =
  suite
  @ [
      Alcotest.test_case "bad delay bounds" `Quick test_bad_delay_bounds_rejected;
      Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
      Alcotest.test_case "self messages" `Quick test_self_messages;
      Alcotest.test_case "clock advances" `Quick test_clock_advances_with_delays;
    ]

(* --- appended: fault injection, livelock budget, traces --- *)

let sink ~time:_ ~src:_ ~dst:_ _ = ()

let test_queue_depth_gauge_tracks_dispatch () =
  (* The gauge is published when a drain ends, not per event: its peak is
     the strong high-water mark and its value what the drain left. *)
  let g = Metrics.gauge "des.queue_depth" in
  Metrics.reset ();
  let des = Des.create ~rng:(Rng.create 7) () in
  for i = 1 to 5 do
    Des.send des ~src:0 ~dst:1 i
  done;
  drain des sink;
  Alcotest.(check (float 0.0)) "depth after drain" 0.0 (Metrics.gauge_value g);
  Alcotest.(check (float 0.0)) "peak after drain" 5.0 (Metrics.gauge_peak g);
  Alcotest.(check int) "queue peak" 5 (Des.queue_peak des)

let test_drop_everything () =
  let des =
    Des.create ~faults:(Des.faults ~drop_p:1.0 ()) ~rng:(Rng.create 8) ()
  in
  let got = ref 0 in
  for i = 1 to 20 do
    Des.send des ~src:0 ~dst:1 i
  done;
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all counted as drops" 20 (Des.drops des)

let test_duplicate_everything () =
  let des =
    Des.create ~faults:(Des.faults ~dup_p:1.0 ()) ~rng:(Rng.create 9) ()
  in
  let got = ref [] in
  for i = 1 to 10 do
    Des.send des ~src:0 ~dst:1 i
  done;
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  Alcotest.(check int) "twice as many deliveries" 20 (List.length !got);
  Alcotest.(check int) "dups counted" 10 (Des.dups des);
  (* FIFO still holds: each copy lands right after its original. *)
  Alcotest.(check (list int)) "adjacent duplicates"
    (List.concat_map (fun i -> [ i; i ]) (List.init 10 (fun i -> i + 1)))
    (List.rev !got)

let test_delay_spike () =
  let des =
    Des.create ~min_delay:0.1 ~max_delay:0.2
      ~faults:(Des.faults ~spike_p:1.0 ~spike_delay:500.0 ())
      ~rng:(Rng.create 10) ()
  in
  Des.send des ~src:0 ~dst:1 ();
  let at = ref 0.0 in
  drain des (fun ~time ~src:_ ~dst:_ _ -> at := time);
  Alcotest.(check bool) "delivery delayed by the spike" true (!at >= 500.0)

let test_self_messages_exempt_from_faults () =
  (* Local timers must never be lost, whatever the channel profile. *)
  let des =
    Des.create ~faults:(Des.faults ~drop_p:1.0 ~dup_p:1.0 ()) ~rng:(Rng.create 11) ()
  in
  let got = ref 0 in
  Des.send des ~src:3 ~dst:3 ();
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "delivered exactly once" 1 !got

let test_partition_cuts_one_link () =
  let des = Des.create ~rng:(Rng.create 13) () in
  Des.partition des 0 1;
  let got = ref 0 in
  Des.send des ~src:0 ~dst:1 ();
  Des.send des ~src:1 ~dst:0 ();
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "both directions cut" 0 !got;
  Alcotest.(check int) "partition drops counted" 2 (Des.drops des);
  Des.send des ~src:0 ~dst:2 ();
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "other links deliver" 1 !got

let test_crash_restart () =
  let des = Des.create ~rng:(Rng.create 14) () in
  let restarts = ref [] in
  Des.set_restart_hook des (fun ~time id -> restarts := (time, id) :: !restarts);
  (* A pending timer of the crashed node dies with it. *)
  Des.send des ~src:1 ~dst:1 `Timer;
  Des.crash des 1;
  Alcotest.(check bool) "down" true (Des.is_down des 1);
  Des.send des ~src:0 ~dst:1 `ToDown;
  Des.send des ~src:1 ~dst:0 `FromDown;
  let got = ref 0 in
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "nothing reaches or leaves a crashed node" 0 !got;
  Alcotest.(check int) "drops counted" 3 (Des.drops des);
  Des.restart_after des ~delay:5.0 1;
  drain des sink;
  Alcotest.(check bool) "back up" false (Des.is_down des 1);
  (match !restarts with
  | [ (t, 1) ] -> Alcotest.(check bool) "restart hook time" true (t >= 5.0)
  | _ -> Alcotest.fail "restart hook not called exactly once");
  Des.send des ~src:0 ~dst:1 `Hello;
  drain des (fun ~time:_ ~src:_ ~dst:_ _ -> incr got);
  Alcotest.(check int) "delivers after restart" 1 !got

let test_weak_events_do_not_block_quiescence () =
  let des = Des.create ~rng:(Rng.create 15) () in
  (* The keepalive sits far in the future; the drain must not chase it. *)
  Des.send_after ~weak:true des ~delay:1000.0 ~src:0 ~dst:0 `Keepalive;
  Des.send des ~src:0 ~dst:1 `Work;
  let got = ref [] in
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  (* The strong message is drained; the keepalive stays queued. *)
  Alcotest.(check bool) "only strong work dispatched" true (!got = [ `Work ]);
  Alcotest.(check int) "weak event still pending" 1 (Des.pending des);
  (* With idle_ok false the drain digs into weak events too. *)
  let idle = ref false in
  drain des
    ~idle_ok:(fun () -> !idle)
    (fun ~time:_ ~src:_ ~dst:_ m ->
      got := m :: !got;
      idle := true);
  Alcotest.(check int) "keepalive eventually dispatched" 2 (List.length !got);
  Alcotest.(check int) "drained" 0 (Des.pending des)

let test_budget_livelock () =
  (* A handler that always reschedules itself can never quiesce; the
     budget must turn the spin into a report. *)
  let des = Des.create ~rng:(Rng.create 16) () in
  Des.send des ~src:0 ~dst:1 ();
  let result =
    Des.run_until_quiescent ~budget:100 des
      ~handler:(fun ~time:_ ~src:_ ~dst _ -> Des.send des ~src:dst ~dst:(1 - dst) ())
  in
  (match result with
  | Des.Livelock { dispatched; pending } ->
      Alcotest.(check int) "budget consumed" 100 dispatched;
      Alcotest.(check bool) "work still pending" true (pending > 0)
  | Des.Quiescent -> Alcotest.fail "expected a livelock report");
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Des.run_until_quiescent: budget must be positive")
    (fun () -> ignore (Des.run_until_quiescent ~budget:0 des ~handler:sink))

let chaos_profile = Des.faults ~drop_p:0.3 ~dup_p:0.2 ~spike_p:0.1 ~spike_delay:25.0 ()

(* A small seeded protocol: relays plus timer chatter, under faults. *)
let chaos_run seed =
  let des = Des.create ~faults:chaos_profile ~rng:(Rng.create seed) () in
  Des.set_trace des true;
  for i = 0 to 19 do
    Des.send des ~src:(i mod 5) ~dst:((i + 1) mod 5) i
  done;
  drain des (fun ~time:_ ~src:_ ~dst m ->
      if m < 40 then Des.send des ~src:dst ~dst:((dst + 2) mod 5) (m + 7));
  (Des.trace des, Des.digest des, Des.drops des, Des.dups des)

let test_trace_replay_deterministic () =
  let t1, d1, drops1, dups1 = chaos_run 2024 in
  let t2, d2, drops2, dups2 = chaos_run 2024 in
  Alcotest.(check bool) "bit-identical traces" true (t1 = t2);
  Alcotest.(check int) "identical digests" d1 d2;
  Alcotest.(check int) "identical drop counts" drops1 drops2;
  Alcotest.(check int) "identical dup counts" dups1 dups2;
  Alcotest.(check bool) "faults actually fired" true (drops1 > 0 && dups1 > 0);
  let _, d3, _, _ = chaos_run 2025 in
  Alcotest.(check bool) "different seed, different digest" true (d1 <> d3);
  (* Replay feeds the recorded steps back verbatim. *)
  let replayed = ref [] in
  Des.replay t1 ~handler:(fun ~time ~src ~dst m ->
      replayed := { Des.at = time; src; dst; msg = m } :: !replayed);
  Alcotest.(check bool) "replay preserves the steps" true
    (List.rev !replayed = t1)

let suite =
  suite
  @ [
      Alcotest.test_case "queue depth gauge" `Quick test_queue_depth_gauge_tracks_dispatch;
      Alcotest.test_case "drop everything" `Quick test_drop_everything;
      Alcotest.test_case "duplicate everything" `Quick test_duplicate_everything;
      Alcotest.test_case "delay spike" `Quick test_delay_spike;
      Alcotest.test_case "self messages exempt" `Quick test_self_messages_exempt_from_faults;
      Alcotest.test_case "partition cuts one link" `Quick test_partition_cuts_one_link;
      Alcotest.test_case "crash and restart" `Quick test_crash_restart;
      Alcotest.test_case "weak events" `Quick test_weak_events_do_not_block_quiescence;
      Alcotest.test_case "budget livelock" `Quick test_budget_livelock;
      Alcotest.test_case "trace replay determinism" `Quick test_trace_replay_deterministic;
    ]

(* --- appended: property tests for the invariants the protocol relies on --- *)

(* Per-channel FIFO under jitter and faults: send increasing payloads on
   every channel; whatever subset survives (drops) or doubles (dups) must
   arrive in non-decreasing order with at most two copies each. *)
let prop_fifo_under_faults =
  QCheck.Test.make ~name:"per-channel FIFO survives jitter, drops and dups"
    ~count:60
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 0 10) (int_range 0 10))
    (fun (seed, drop10, dup10) ->
      let faults =
        Des.faults ~drop_p:(float_of_int drop10 /. 10.0)
          ~dup_p:(float_of_int dup10 /. 10.0)
          ~spike_p:0.2 ~spike_delay:40.0 ()
      in
      let des = Des.create ~faults ~rng:(Rng.create seed) () in
      let channels = [ (0, 1); (1, 0); (2, 1); (0, 2) ] in
      for i = 0 to 29 do
        List.iter (fun (src, dst) -> Des.send des ~src ~dst i) channels
      done;
      let per_channel = Hashtbl.create 8 in
      (match Des.run_until_quiescent des ~handler:(fun ~time:_ ~src ~dst m ->
           let key = (src, dst) in
           let old = Option.value ~default:[] (Hashtbl.find_opt per_channel key) in
           Hashtbl.replace per_channel key (m :: old))
       with
      | Des.Quiescent -> ()
      | Des.Livelock _ -> QCheck.Test.fail_report "no budget given, yet livelock");
      List.for_all
        (fun key ->
          let seq =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt per_channel key))
          in
          let rec ordered = function
            | a :: (b :: _ as rest) -> a <= b && ordered rest
            | _ -> true
          in
          let count x = List.length (List.filter (fun y -> y = x) seq) in
          ordered seq && List.for_all (fun x -> count x <= 2) seq)
        channels)

(* Same seed + same fault profile ⇒ the delivered event sequence is
   bit-identical, including under handler-driven sends. *)
let prop_seeded_chaos_deterministic =
  QCheck.Test.make ~name:"same seed and faults give identical traces" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 10))
    (fun (seed, drop10) ->
      let run () =
        let faults =
          Des.faults ~drop_p:(float_of_int drop10 /. 20.0) ~dup_p:0.15 ()
        in
        let des = Des.create ~faults ~rng:(Rng.create seed) () in
        Des.set_trace des true;
        for i = 0 to 14 do
          Des.send des ~src:(i mod 3) ~dst:((i + 1) mod 3) i
        done;
        (match Des.run_until_quiescent des ~handler:(fun ~time:_ ~src:_ ~dst m ->
             if m < 30 then Des.send des ~src:dst ~dst:((dst + 1) mod 3) (m + 5))
         with
        | Des.Quiescent -> ()
        | Des.Livelock _ -> QCheck.Test.fail_report "unexpected livelock");
        (Des.trace des, Des.digest des)
      in
      let t1, d1 = run () and t2, d2 = run () in
      t1 = t2 && d1 = d2)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_fifo_under_faults;
      QCheck_alcotest.to_alcotest prop_seeded_chaos_deterministic;
    ]

(* --- appended: time-wheel internals, bounded channel metadata, strong
   gauge semantics --- *)

(* Delays spanning six orders of magnitude walk events through every
   wheel level and the overflow chain; delivery must still be globally
   time-ordered, including for events scheduled after a rebase. *)
let test_wheel_levels_and_overflow () =
  let des = Des.create ~min_delay:0.1 ~max_delay:1.0 ~rng:(Rng.create 21) () in
  let delays = [ 0.0; 3.0; 250.0; 40_000.0; 6_000_000.0; 2_000_000_000.0 ] in
  List.iteri
    (fun i d -> Des.send_after des ~delay:d ~src:i ~dst:(10 + i) d)
    delays;
  let got = ref [] in
  let last = ref neg_infinity in
  drain des (fun ~time ~src:_ ~dst:_ d ->
      Alcotest.(check bool) "time-ordered across levels" true (time >= !last);
      last := time;
      got := d :: !got;
      (* After the far-future event (post-rebase), schedule more work;
         it must still deliver in order. *)
      if d > 1_000_000_000.0 then Des.send des ~src:50 ~dst:51 (-1.0));
  Alcotest.(check int) "all delivered" 7 (List.length !got);
  Alcotest.(check (list (float 0.0))) "payload order = delay order"
    (delays @ [ -1.0 ])
    (List.rev !got)

(* The satellite bound: 10^5 distinct channels, each touched once, must
   not leave 10^5 metadata entries behind — fronts behind the clock are
   pruned as the clock advances. *)
let test_channel_metadata_bounded () =
  let des = Des.create ~rng:(Rng.create 22) () in
  for batch = 0 to 99 do
    for i = 0 to 999 do
      let src = (batch * 1000) + i in
      Des.send des ~src ~dst:(src + 1_000_000) ()
    done;
    drain des sink
  done;
  Alcotest.(check int) "all delivered" 100_000 (Des.messages_delivered des);
  Alcotest.(check bool)
    (Printf.sprintf "metadata bounded (%d entries)" (Des.channel_meta_size des))
    true
    (Des.channel_meta_size des < 10_000)

(* Pruning must be invisible to the schedule: a chatty run with and
   without intervening prunes (forced by channel churn) keeps the exact
   digest.  The digest covers (time, src, dst) of every delivery, so a
   single shifted FIFO floor would show. *)
let test_pruning_invisible_to_digest () =
  let run ~churn =
    let des = Des.create ~rng:(Rng.create 23) () in
    for round = 0 to 19 do
      for i = 0 to 9 do
        Des.send des ~src:i ~dst:((i + 1) mod 10) (round, i)
      done;
      if churn then
        (* Touch thousands of one-shot channels to push the table past
           its prune threshold. *)
        for i = 0 to 499 do
          Des.send des ~src:(1000 + (round * 500) + i) ~dst:999_999 (round, i)
        done;
      drain des sink
    done;
    Des.digest des
  in
  (* Different channel sets give different digests, so compare only the
     chatty sub-runs: replay the same ten-channel run twice with churn
     and check determinism survives pruning. *)
  Alcotest.(check bool) "churn run deterministic" true
    (run ~churn:true = run ~churn:true);
  Alcotest.(check bool) "quiet run deterministic" true
    (run ~churn:false = run ~churn:false)

(* The queue-depth gauge counts strong events only; weak keepalives
   never show, in the value or the peak. *)
let test_queue_depth_counts_strong_only () =
  let g = Metrics.gauge "des.queue_depth" in
  Metrics.reset ();
  let des = Des.create ~rng:(Rng.create 24) () in
  for _ = 1 to 3 do
    Des.send_after ~weak:true des ~delay:10_000.0 ~src:0 ~dst:0 `Keepalive
  done;
  Des.send des ~src:0 ~dst:1 `Work;
  Des.send des ~src:1 ~dst:0 `Work;
  drain des sink;
  Alcotest.(check (float 0.0)) "zero after drain, keepalives queued" 0.0
    (Metrics.gauge_value g);
  Alcotest.(check (float 0.0)) "peak counts the strong events only" 2.0
    (Metrics.gauge_peak g);
  Alcotest.(check int) "weak events still pending" 3 (Des.pending des);
  Alcotest.(check int) "queue peak counts the full queue" 5
    (Des.queue_peak des)

let suite =
  suite
  @ [
      Alcotest.test_case "wheel levels and overflow" `Quick
        test_wheel_levels_and_overflow;
      Alcotest.test_case "channel metadata bounded" `Quick
        test_channel_metadata_bounded;
      Alcotest.test_case "pruning invisible to digest" `Quick
        test_pruning_invisible_to_digest;
      Alcotest.test_case "queue depth counts strong only" `Quick
        test_queue_depth_counts_strong_only;
    ]

(* --- appended: non-finite delays, the per-drain Metrics contract and
   the kernel's allocation budget --- *)

let test_non_finite_delays_rejected () =
  let des = Des.create ~rng:(Rng.create 30) () in
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "send_after %h" d)
        (Invalid_argument "Des.send_after: non-finite delay")
        (fun () -> Des.send_after des ~delay:d ~src:0 ~dst:1 ());
      Alcotest.check_raises
        (Printf.sprintf "restart_after %h" d)
        (Invalid_argument "Des.restart_after: non-finite delay")
        (fun () -> Des.restart_after des ~delay:d 0))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check int) "nothing queued" 0 (Des.pending des);
  List.iter
    (fun (min_delay, max_delay) ->
      Alcotest.check_raises
        (Printf.sprintf "create %h %h" min_delay max_delay)
        (Invalid_argument "Des.create: bad delay bounds")
        (fun () -> ignore (Des.create ~min_delay ~max_delay ~rng:(Rng.create 0) ())))
    [ (nan, 1.0); (0.1, nan); (0.1, infinity); (infinity, infinity) ];
  List.iter
    (fun spike_delay ->
      Alcotest.check_raises
        (Printf.sprintf "spike_delay %h" spike_delay)
        (Invalid_argument "Des.faults: spike_delay must be finite and non-negative")
        (fun () -> ignore (Des.faults ~spike_delay ())))
    [ nan; infinity ]

(* A delay too large for an int quantum still delivers in time order
   (an unsaturated [int_of_float] put both far events in quantum 0,
   ahead of the wheel). *)
let test_huge_finite_delay_ordered () =
  let des = Des.create ~rng:(Rng.create 31) () in
  Des.send_after des ~delay:1e300 ~src:0 ~dst:1 `Far;
  Des.send_after des ~delay:1e200 ~src:2 ~dst:1 `Mid;
  Des.send_after des ~delay:5.0 ~src:3 ~dst:1 `Near;
  let got = ref [] in
  drain des (fun ~time:_ ~src:_ ~dst:_ m -> got := m :: !got);
  Alcotest.(check bool) "near, mid, far" true
    (List.rev !got = [ `Near; `Mid; `Far ]);
  Alcotest.(check bool) "clock at the far delivery" true (Des.now des >= 1e300)

let test_out_of_range_ids_rejected () =
  let des = Des.create ~rng:(Rng.create 32) () in
  Alcotest.check_raises "crash"
    (Invalid_argument "Des.crash: process ids must fit 30 bits") (fun () ->
      Des.crash des (-1));
  Alcotest.check_raises "partition"
    (Invalid_argument "Des.partition: process ids must fit 30 bits") (fun () ->
      Des.partition des 0 (1 lsl 30))

let counter name = Metrics.count (Metrics.counter name)

(* Counters and the gauge reach Metrics when the drain ends, also when
   the handler raises out of it. *)
let test_raising_handler_still_publishes () =
  let g = Metrics.gauge "des.queue_depth" in
  Metrics.reset ();
  let des = Des.create ~rng:(Rng.create 33) () in
  for i = 1 to 4 do
    Des.send des ~src:0 ~dst:1 i
  done;
  Alcotest.(check int) "nothing published before the drain" 0
    (counter "des.messages_sent");
  Alcotest.check_raises "the handler's exception escapes" (Failure "boom")
    (fun () ->
      ignore
        (Des.run_until_quiescent des ~handler:(fun ~time:_ ~src:_ ~dst:_ m ->
             if m = 2 then failwith "boom")));
  Alcotest.(check int) "messages sent" 4 (counter "des.messages_sent");
  Alcotest.(check int) "events dispatched" 2 (counter "des.events_dispatched");
  Alcotest.(check (float 0.0)) "depth left by the raise" 2.0
    (Metrics.gauge_value g);
  Alcotest.(check (float 0.0)) "peak" 4.0 (Metrics.gauge_peak g);
  (* A second drain adds only what is new. *)
  drain des sink;
  Alcotest.(check int) "events dispatched, both drains" 4
    (counter "des.events_dispatched");
  Alcotest.(check int) "messages sent, unchanged" 4 (counter "des.messages_sent");
  Alcotest.(check (float 0.0)) "drained" 0.0 (Metrics.gauge_value g)

(* The fleet benchmark's Des kernel: [events] messages forwarded hop by
   hop through [procs] processes by up to 1024 concurrent tokens. *)
let des_kernel ~seed ~procs ~events =
  let des = Des.create ~rng:(Rng.create seed) () in
  let tokens = max 1 (min 1024 events) in
  let hops = max 1 (events / tokens) in
  for k = 0 to tokens - 1 do
    let src = k * procs / tokens in
    Des.send des ~src ~dst:((src + 1) mod procs) (hops - 1)
  done;
  drain des (fun ~time:_ ~src:_ ~dst left ->
      if left > 0 then Des.send des ~src:dst ~dst:((dst + 1) mod procs) (left - 1));
  Des.messages_delivered des

(* The send and dispatch path allocates only the boxed jitter draw and
   the boxed clock handed to the handler; set-up is shared over the
   events. *)
let test_kernel_allocation () =
  let w0 = Gc.minor_words () in
  let events = des_kernel ~seed:1 ~procs:50_176 ~events:10_000 in
  let words = (Gc.minor_words () -. w0) /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event (at most 10)" words)
    true (words <= 10.0)

let suite =
  suite
  @ [
      Alcotest.test_case "non-finite delays rejected" `Quick
        test_non_finite_delays_rejected;
      Alcotest.test_case "huge finite delay ordered" `Quick
        test_huge_finite_delay_ordered;
      Alcotest.test_case "out-of-range ids rejected" `Quick
        test_out_of_range_ids_rejected;
      Alcotest.test_case "raising handler still publishes" `Quick
        test_raising_handler_still_publishes;
      Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
    ]
