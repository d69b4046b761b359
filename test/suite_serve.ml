(* The serving stack: frame codec (blocking and incremental), protocol
   JSON roundtrips, the canonical demand digest (QCheck), the result
   cache's bit-identical answers, and the engine's dedup/metrics
   contract.  The daemon's socket loop is exercised end to end from
   suite_pool (concurrent clients need a second domain). *)

let digest_testable = Alcotest.int

let demand_equal a b =
  Demand_map.dim a = Demand_map.dim b
  && Demand_map.support_size a = Demand_map.support_size b
  && Demand_map.fold a ~init:true ~f:(fun acc p v ->
         acc && Demand_map.value b p = v)

let small_demand seed =
  let rng = Rng.create seed in
  Workload.demand
    (Workload.uniform ~rng
       ~box:(Box.cube_at_origin ~dim:2 ~side:5)
       ~jobs:(20 + Rng.int rng 30))

(* --- framing --- *)

let test_frame_chunked_roundtrip () =
  let payloads =
    [ ""; "x"; "{\"id\":1}"; "payload with\nnewlines\nand \xff bytes"; String.make 5000 'q' ]
  in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let dec = Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Frame.feed_string dec (String.make 1 ch);
      let rec drain () =
        match Frame.next dec with
        | Some p ->
            out := p :: !out;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "byte-at-a-time decode" payloads (List.rev !out);
  Alcotest.(check (option string)) "decoder drained" None (Frame.next dec)

let test_frame_bad_headers () =
  let rejects bytes =
    let dec = Frame.decoder () in
    Frame.feed_string dec bytes;
    match Frame.next dec with
    | exception Frame.Bad_frame _ -> ()
    | Some _ | None ->
        Alcotest.fail (Printf.sprintf "header %S must be rejected" bytes)
  in
  rejects "nope\n";
  rejects "12x34\n";
  rejects "\n";
  rejects (string_of_int (Frame.max_payload + 1) ^ "\n");
  (* Missing trailing newline after the payload. *)
  rejects "2\nabX"

let test_frame_channel_io () =
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  let ic = Unix.in_channel_of_descr rd in
  Frame.write oc "first";
  Frame.write oc "second\nwith newline";
  close_out oc;
  Alcotest.(check (option string)) "first" (Some "first") (Frame.read ic);
  Alcotest.(check (option string))
    "second" (Some "second\nwith newline") (Frame.read ic);
  Alcotest.(check (option string)) "clean EOF" None (Frame.read ic);
  close_in ic

let test_frame_eof_mid_frame () =
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  let ic = Unix.in_channel_of_descr rd in
  output_string oc "100\ntruncated";
  close_out oc;
  (match Frame.read ic with
  | exception Frame.Bad_frame _ -> ()
  | Some _ | None -> Alcotest.fail "EOF mid-frame must raise Bad_frame");
  close_in ic

(* --- protocol --- *)

let test_request_roundtrip () =
  let dm = small_demand 1 in
  List.iter
    (fun op ->
      let req = Protocol.request ~id:7 op dm in
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Error e -> Alcotest.fail e
      | Ok back ->
          Alcotest.(check int) "id" 7 back.Protocol.id;
          Alcotest.(check bool) "op" true (back.Protocol.op = op);
          Alcotest.(check bool) "demand survives" true
            (demand_equal dm back.Protocol.demand))
    [ Protocol.Omega_star; Protocol.Lp_value 3; Protocol.Witness ]

let test_request_validation () =
  let rejects text =
    match Protocol.request_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "must reject %s" text)
  in
  rejects "not json";
  rejects "{\"id\":1,\"op\":\"sideways\"}";
  rejects "{\"id\":1,\"op\":\"lp_value\"}" (* radius required *);
  rejects "{\"id\":1,\"op\":\"omega_star\",\"demand\":[[0,0,-2]]}";
  rejects "{\"id\":1,\"op\":\"omega_star\",\"demand\":[[0,0]]}" (* row too short *);
  (* The LP grid is fixed, so a request that asks for a resolution — even
     the grid's own — is refused by name, never answered at a resolution
     it did not ask for. *)
  List.iter
    (fun v ->
      match
        Protocol.request_of_string
          (Printf.sprintf "{\"id\":1,\"op\":\"omega_star\",\"scale\":%s}" v)
      with
      | Error e ->
          Alcotest.(check string) ("scale " ^ v)
            "member \"scale\" is not accepted: the LP grid is fixed" e
      | Ok _ -> Alcotest.failf "must reject scale %s" v)
    [ "720720"; "360360"; "0" ];
  match
    Protocol.request_of_string "{\"id\":3,\"op\":\"ping\"}"
  with
  | Ok r -> Alcotest.(check bool) "ping defaults parse" true (r.Protocol.op = Protocol.Ping)
  | Error e -> Alcotest.fail e

let test_response_roundtrip () =
  let cases =
    [
      { Protocol.r_id = 1; r_cached = false; r_result = Ok (Protocol.Value (1.0 /. 3.0)) };
      { Protocol.r_id = 2; r_cached = true; r_result = Ok (Protocol.Value 0.1) };
      {
        Protocol.r_id = 3;
        r_cached = false;
        r_result = Ok (Protocol.Tight_set (Some ([ [| 0; 1 |]; [| 2; 2 |] ], 2.5)));
      };
      { Protocol.r_id = 4; r_cached = true; r_result = Ok (Protocol.Tight_set None) };
      { Protocol.r_id = 5; r_cached = false; r_result = Ok Protocol.Pong };
      { Protocol.r_id = 6; r_cached = false; r_result = Error "synthetic failure" };
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Error e -> Alcotest.fail e
      | Ok back -> (
          Alcotest.(check int) "id" resp.Protocol.r_id back.Protocol.r_id;
          match (resp.Protocol.r_result, back.Protocol.r_result) with
          | Ok a, Ok b ->
              Alcotest.(check bool) "cached" resp.Protocol.r_cached
                back.Protocol.r_cached;
              (* Bit-identical across the wire: Float.equal, not approx. *)
              Alcotest.(check bool) "answer bit-identical" true
                (Protocol.answer_equal a b)
          | Error x, Error y -> Alcotest.(check string) "error text" x y
          | _ -> Alcotest.fail "Ok/Error mismatch after roundtrip"))
    cases

(* --- digest properties --- *)

let gen_rows =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (map
         (fun ((x, y), d) -> ([| x; y |], d))
         (pair (pair (int_range 0 6) (int_range 0 6)) (int_range 1 9))))

let arb_rows =
  QCheck.make
    ~print:(fun rows ->
      String.concat ";"
        (List.map (fun (p, d) -> Printf.sprintf "(%d,%d)->%d" p.(0) p.(1) d) rows))
    gen_rows

let prop_digest_permutation_invariant =
  QCheck.Test.make ~name:"digest is canonical under row permutation" ~count:200
    (QCheck.pair arb_rows QCheck.int)
    (fun (rows, salt) ->
      let forward = Demand_map.of_alist 2 rows in
      let rng = Rng.create salt in
      let arr = Array.of_list rows in
      Rng.shuffle rng arr;
      let shuffled =
        Array.fold_left
          (fun dm (p, d) -> Demand_map.add dm p d)
          (Demand_map.empty 2) arr
      in
      (* Same multiset of rows: structurally equal, and equal digests. *)
      demand_equal forward shuffled
      && Protocol.demand_digest forward = Protocol.demand_digest shuffled)

let test_digest_collision_free_on_workloads () =
  (* Seeded workload sweep: structurally distinct demand sets must get
     distinct digests (63-bit FNV over ~300 sets; a collision here means
     the digest construction is broken, not bad luck). *)
  let dms = Array.init 300 (fun seed -> small_demand seed) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j && not (demand_equal a b) then
            Alcotest.(check bool)
              (Printf.sprintf "seeds %d vs %d digests differ" i j)
              true
              (Protocol.demand_digest a <> Protocol.demand_digest b))
        dms)
    dms

let test_digest_sensitivity () =
  let dm = Demand_map.of_alist 2 [ ([| 1; 2 |], 3); ([| 4; 0 |], 5) ] in
  let bumped = Demand_map.add dm [| 1; 2 |] 1 in
  Alcotest.(check bool) "value change changes the digest" true
    (Protocol.demand_digest dm <> Protocol.demand_digest bumped);
  let moved = Demand_map.of_alist 2 [ ([| 2; 1 |], 3); ([| 4; 0 |], 5) ] in
  Alcotest.(check digest_testable) "digest is a pure function"
    (Protocol.demand_digest dm) (Protocol.demand_digest dm);
  Alcotest.(check bool) "coordinate swap changes the digest" true
    (Protocol.demand_digest dm <> Protocol.demand_digest moved)

(* --- engine + cache --- *)

let test_cached_answers_bit_identical () =
  let engine = Engine.create () in
  let dm = small_demand 17 in
  List.iter
    (fun op ->
      let req = Protocol.request ~id:0 op dm in
      let fresh = Engine.process engine req in
      let cached = Engine.process engine req in
      Alcotest.(check bool) "first call is a miss" false fresh.Protocol.r_cached;
      Alcotest.(check bool) "second call is a hit" true cached.Protocol.r_cached;
      match (fresh.Protocol.r_result, cached.Protocol.r_result, Engine.evaluate req) with
      | Ok a, Ok b, Ok reference ->
          Alcotest.(check bool) "hit equals miss" true (Protocol.answer_equal a b);
          Alcotest.(check bool) "both equal a fresh oracle call" true
            (Protocol.answer_equal a reference)
      | _ -> Alcotest.fail "expected Ok answers")
    [ Protocol.Omega_star; Protocol.Witness; Protocol.Lp_value 2 ]

let test_cache_key_discriminates () =
  let engine = Engine.create () in
  let dm = small_demand 23 in
  let r1 = Engine.process engine (Protocol.request ~id:0 Protocol.Omega_star dm) in
  let r2 = Engine.process engine (Protocol.request ~id:1 (Protocol.Lp_value 1) dm) in
  let r3 = Engine.process engine (Protocol.request ~id:2 Protocol.Witness dm) in
  Alcotest.(check bool) "different radius misses" false r2.Protocol.r_cached;
  Alcotest.(check bool) "different op misses" false r3.Protocol.r_cached;
  ignore r1

let test_batch_dedup_and_counters () =
  Metrics.reset ();
  let engine = Engine.create () in
  let a = small_demand 31 and b = small_demand 32 and c = small_demand 33 in
  let reqs =
    Array.mapi
      (fun id dm -> Protocol.request ~id Protocol.Omega_star dm)
      [| a; b; a; c; b; a; a; b; c; a |]
  in
  let responses = Engine.process_batch engine reqs in
  Alcotest.(check int) "all answered" 10 (Array.length responses);
  Array.iter
    (fun r ->
      match r.Protocol.r_result with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    responses;
  let count name =
    match Metrics.sample name with
    | Some (Metrics.Count n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  (* Three distinct demand sets: the oracle runs exactly three times and
     the seven coalesced duplicates count as hits. *)
  Alcotest.(check int) "oracle calls" 3 (count "serve.oracle_calls");
  Alcotest.(check int) "misses" 3 (count "serve.cache_misses");
  Alcotest.(check int) "hits" 7 (count "serve.cache_hits");
  Alcotest.(check int) "requests" 10 (count "serve.requests");
  Alcotest.(check int) "cache holds the distinct sets" 3 (Engine.cache_size engine);
  (match Metrics.sample "serve.request_latency_ns" with
  | Some (Metrics.Dist d) ->
      Alcotest.(check int) "one latency observation per request" 10 d.count
  | _ -> Alcotest.fail "serve.request_latency_ns missing");
  (* Coalesced duplicates return the same bits as the computed one. *)
  match (responses.(0).Protocol.r_result, responses.(2).Protocol.r_result) with
  | Ok x, Ok y ->
      Alcotest.(check bool) "duplicate equals original" true
        (Protocol.answer_equal x y)
  | _ -> Alcotest.fail "expected Ok answers"

let test_cache_capacity_fifo () =
  let engine = Engine.create ~cache_capacity:2 () in
  let ask id seed =
    ignore (Engine.process engine (Protocol.request ~id Protocol.Omega_star (small_demand seed)))
  in
  ask 0 41;
  ask 1 42;
  ask 2 43 (* evicts the entry for seed 41 *);
  Alcotest.(check int) "bounded" 2 (Engine.cache_size engine);
  let again =
    Engine.process engine (Protocol.request ~id:3 Protocol.Omega_star (small_demand 41))
  in
  Alcotest.(check bool) "oldest was evicted" false again.Protocol.r_cached

let test_engine_error_responses () =
  let engine = Engine.create () in
  let dm = small_demand 51 in
  (* A negative radius passes the constructor but fails inside the
     oracle; the engine must answer Error, not raise. *)
  let bad = Protocol.request ~id:9 (Protocol.Lp_value (-1)) dm in
  (* A demand whose grid-scaled value does not fit in an int: the flow
     network cannot be built, and the batch must still answer. *)
  let huge = Demand_map.of_alist 2 [ ([| 0; 0 |], 100_000_000_000_000) ] in
  let overflowing =
    List.map
      (fun op -> Protocol.request ~id:11 op huge)
      [ Protocol.Omega_star; Protocol.Lp_value 1; Protocol.Witness ]
  in
  let ok = Protocol.request ~id:10 Protocol.Omega_star dm in
  let responses =
    Engine.process_batch engine (Array.of_list ((bad :: overflowing) @ [ ok ]))
  in
  Array.iteri
    (fun i r ->
      if i < 4 then
        match r.Protocol.r_result with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "request %d must fail" i)
    responses;
  (match responses.(4).Protocol.r_result with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("sibling request must still succeed: " ^ e));
  Alcotest.(check bool) "failed answers are not cached" true
    (Engine.cache_size engine = 1)

(* --- loadgen --- *)

let test_loadgen_deterministic () =
  List.iter
    (fun mix ->
      let a = Loadgen.queries ~seed:5 ~mix ~n:40 in
      let b = Loadgen.queries ~seed:5 ~mix ~n:40 in
      Alcotest.(check int) "same length" (Array.length a) (Array.length b);
      Array.iteri
        (fun i req ->
          Alcotest.(check string)
            (Printf.sprintf "%s query %d" (Loadgen.mix_name mix) i)
            (Protocol.request_to_string req)
            (Protocol.request_to_string b.(i)))
        a)
    Loadgen.all_mixes

let test_loadgen_replay_stats () =
  let engine = Engine.create () in
  let reqs = Loadgen.queries ~seed:2 ~mix:Loadgen.Repeat_heavy ~n:60 in
  match Loadgen.replay_engine ~check:true engine reqs with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check int) "all completed" 60 s.Loadgen.completed;
      Alcotest.(check int) "no errors" 0 s.Loadgen.error_responses;
      Alcotest.(check bool) "repeat-heavy hits the cache" true
        (s.Loadgen.hit_rate > 0.0);
      Alcotest.(check bool) "quantiles are ordered" true
        (s.Loadgen.p50_ns <= s.Loadgen.p95_ns
        && s.Loadgen.p95_ns <= s.Loadgen.p99_ns)

(* --- streaming sessions over the wire --- *)

let test_session_request_roundtrip () =
  let dm = Demand_map.empty 2 in
  List.iter
    (fun op ->
      let req = Protocol.request ~session:"s-1" ~id:11 op dm in
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Error e -> Alcotest.fail e
      | Ok back ->
          Alcotest.(check bool) "op survives" true (back.Protocol.op = op);
          Alcotest.(check (option string))
            "session name survives" (Some "s-1") back.Protocol.session)
    [
      Protocol.Session_add [| 3; -2 |];
      Protocol.Session_remove [| 0; 0 |];
      Protocol.Session_query;
    ]

let test_session_request_validation () =
  let rejects text =
    match Protocol.request_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "must reject %s" text)
  in
  rejects "{\"id\":1,\"op\":\"session_add\",\"session\":\"s\"}" (* point required *);
  rejects "{\"id\":1,\"op\":\"session_add\",\"session\":\"s\",\"point\":[1]}"
    (* wrong arity for dim 2 *);
  rejects "{\"id\":1,\"op\":\"session_remove\",\"session\":\"s\",\"point\":[1,\"x\"]}";
  match
    Protocol.request_of_string
      "{\"id\":1,\"op\":\"session_add\",\"session\":\"s\",\"dim\":3,\"point\":[1,2,3]}"
  with
  | Ok r ->
      Alcotest.(check bool) "dim-3 point parses" true
        (r.Protocol.op = Protocol.Session_add [| 1; 2; 3 |])
  | Error e -> Alcotest.fail e

(* The maintained row sum must close into the exact digest a from-scratch
   demand_digest computes, through adds, partial removals and binding
   drops — this is what keeps session cache keys fresh. *)
let test_rowsum_tracks_digest () =
  let dim = 2 in
  let steps =
    [ ([| 0; 0 |], 2); ([| 1; 4 |], 3); ([| 0; 0 |], -1); ([| 1; 4 |], -3);
      ([| 0; 0 |], -1); ([| 5; 5 |], 1) ]
  in
  let dm = ref (Demand_map.empty dim) and rowsum = ref 0 in
  List.iteri
    (fun i (p, delta) ->
      let before = Demand_map.value !dm p in
      dm :=
        (if delta >= 0 then Demand_map.add !dm p delta
         else Demand_map.remove !dm p (-delta));
      rowsum :=
        Protocol.rowsum_update ~dim ~rowsum:!rowsum p ~before
          ~after:(before + delta);
      Alcotest.(check digest_testable)
        (Printf.sprintf "step %d: incremental digest = from-scratch" i)
        (Protocol.demand_digest !dm)
        (Protocol.digest_of_rowsum ~dim ~rowsum:!rowsum
           ~support:(Demand_map.support_size !dm)))
    steps

(* Stale-digest regression: mutating a session between two identical
   queries must invalidate the cache key — the second query after a
   mutation may never replay the pre-mutation answer. *)
let test_session_digest_never_stale () =
  let engine = Engine.create () in
  let dm0 = Demand_map.empty 2 in
  let run op = Engine.process engine (Protocol.request ~session:"s" ~id:0 op dm0) in
  let value r =
    match r.Protocol.r_result with
    | Ok (Protocol.Value v) -> v
    | Ok _ -> Alcotest.fail "expected a value"
    | Error e -> Alcotest.fail e
  in
  ignore (run (Protocol.Session_add [| 0; 0 |]));
  let q1 = run Protocol.Session_query in
  Alcotest.(check bool) "first query misses" false q1.Protocol.r_cached;
  let q2 = run Protocol.Session_query in
  Alcotest.(check bool) "repeat query hits" true q2.Protocol.r_cached;
  Alcotest.(check bool) "hit is bit-identical" true
    (Float.equal (value q1) (value q2));
  for _ = 1 to 5 do
    ignore (run (Protocol.Session_add [| 0; 0 |]))
  done;
  let q3 = run Protocol.Session_query in
  Alcotest.(check bool) "query after mutation recomputes" false
    q3.Protocol.r_cached;
  Alcotest.(check (float 1e-9)) "6 origin jobs" 1.2 (value q3);
  ignore (run (Protocol.Session_remove [| 0; 0 |]));
  let q4 = run Protocol.Session_query in
  Alcotest.(check bool) "removal also invalidates" false q4.Protocol.r_cached;
  Alcotest.(check bool) "removal answer is fresh" true
    (Float.equal 1.0 (value q4));
  (* back to the 1-job demand? no — 5 jobs; but the 6-job key must still
     hit if we return to that exact demand *)
  ignore (run (Protocol.Session_add [| 0; 0 |]));
  let q5 = run Protocol.Session_query in
  Alcotest.(check bool) "returning to a seen demand hits" true
    q5.Protocol.r_cached;
  Alcotest.(check bool) "and replays the exact bits" true
    (Float.equal (value q3) (value q5))

(* A session query and a stateless Omega_star on the same demand share
   one cache entry in both directions. *)
let test_session_shares_cache_with_stateless () =
  let engine = Engine.create () in
  let dm0 = Demand_map.empty 2 in
  let run ?session op dm =
    Engine.process engine (Protocol.request ?session ~id:0 op dm)
  in
  ignore (run ~session:"s" (Protocol.Session_add [| 0; 0 |]) dm0);
  ignore (run ~session:"s" (Protocol.Session_add [| 1; 0 |]) dm0);
  let q = run ~session:"s" Protocol.Session_query dm0 in
  Alcotest.(check bool) "session query misses first" false q.Protocol.r_cached;
  let dm = Demand_map.of_alist 2 [ ([| 0; 0 |], 1); ([| 1; 0 |], 1) ] in
  let stateless = run Protocol.Omega_star dm in
  Alcotest.(check bool) "stateless query on the same demand hits" true
    stateless.Protocol.r_cached;
  (match (q.Protocol.r_result, stateless.Protocol.r_result) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "shared entry, same bits" true
        (Protocol.answer_equal a b)
  | _ -> Alcotest.fail "expected Ok answers");
  (* and the reverse direction: stateless first, session hits *)
  let dm2 = Demand_map.of_alist 2 [ ([| 0; 0 |], 1); ([| 1; 0 |], 1); ([| 2; 0 |], 1) ] in
  ignore (run Protocol.Omega_star dm2);
  ignore (run ~session:"s" (Protocol.Session_add [| 2; 0 |]) dm0);
  let q2 = run ~session:"s" Protocol.Session_query dm0 in
  Alcotest.(check bool) "session query hits the stateless entry" true
    q2.Protocol.r_cached

let test_session_error_paths () =
  let engine = Engine.create () in
  let dm0 = Demand_map.empty 2 in
  let run ?session op = Engine.process engine (Protocol.request ?session ~id:0 op dm0)
  in
  let expect_error msg r =
    match r.Protocol.r_result with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (msg ^ " must answer Error")
  in
  expect_error "missing session name" (run (Protocol.Session_add [| 0; 0 |]));
  expect_error "query on unknown session" (run ~session:"ghost" Protocol.Session_query);
  expect_error "remove on unknown session"
    (run ~session:"ghost" (Protocol.Session_remove [| 0; 0 |]));
  ignore (run ~session:"s" (Protocol.Session_add [| 0; 0 |]));
  expect_error "remove below zero"
    (run ~session:"s" (Protocol.Session_remove [| 9; 9 |]));
  expect_error "dimension mismatch"
    (Engine.process engine
       (Protocol.request ~session:"s" ~id:0 (Protocol.Session_add [| 1 |])
          (Demand_map.empty 1)));
  (* the session survives its errors *)
  let q = run ~session:"s" Protocol.Session_query in
  (match q.Protocol.r_result with
  | Ok (Protocol.Value v) ->
      Alcotest.(check bool) "session still answers" true (Float.equal v 1.0)
  | _ -> Alcotest.fail "session must still answer");
  Alcotest.(check int) "one live session" 1 (Engine.session_count engine);
  expect_error "evaluate has no stateless session path"
    {
      Protocol.r_id = 0;
      r_cached = false;
      r_result = Engine.evaluate (Protocol.request ~session:"s" ~id:0 Protocol.Session_query dm0);
    }

let test_session_metrics () =
  Metrics.reset ();
  let engine = Engine.create () in
  let dm0 = Demand_map.empty 2 in
  let run op = Engine.process engine (Protocol.request ~session:"m" ~id:0 op dm0) in
  ignore (run (Protocol.Session_add [| 0; 0 |]));
  ignore (run Protocol.Session_query);
  ignore (run Protocol.Session_query);
  let count name =
    match Metrics.sample name with
    | Some (Metrics.Count n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check int) "session ops counted" 3 (count "serve.session_ops");
  Alcotest.(check int) "one miss" 1 (count "serve.cache_misses");
  Alcotest.(check int) "one hit" 1 (count "serve.cache_hits");
  match Metrics.sample "serve.sessions" with
  | Some (Metrics.Level { value; _ }) ->
      Alcotest.(check (float 0.0)) "sessions gauge" 1.0 value
  | _ -> Alcotest.fail "serve.sessions missing"

(* LRU session eviction: the engine caps live sessions at
   [max_sessions]; inserting past the cap evicts the least-recently-used
   session, and touching a session (any op) protects it. *)
let test_session_lru_eviction () =
  let engine = Engine.create ~max_sessions:3 () in
  let dm0 = Demand_map.empty 2 in
  let run name op =
    Engine.process engine (Protocol.request ~session:name ~id:0 op dm0)
  in
  let add name = ignore (run name (Protocol.Session_add [| 0; 0 |])) in
  add "a";
  add "b";
  add "c";
  Alcotest.(check int) "cap not yet reached" 0 (Engine.session_evictions engine);
  Alcotest.(check int) "three live sessions" 3 (Engine.session_count engine);
  (* Touch "a" so "b" becomes the LRU victim. *)
  ignore (run "a" Protocol.Session_query);
  add "d";
  Alcotest.(check int) "one eviction" 1 (Engine.session_evictions engine);
  Alcotest.(check int) "still at the cap" 3 (Engine.session_count engine);
  (* "b" was evicted: querying it is now an unknown-session error... *)
  (match (run "b" Protocol.Session_query).Protocol.r_result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "evicted session should be unknown");
  (* ...while the recently-touched "a" survived with its demand intact. *)
  (match (run "a" Protocol.Session_query).Protocol.r_result with
  | Ok (Protocol.Value v) ->
      Alcotest.(check bool) "survivor kept its job" true (v > 0.0)
  | _ -> Alcotest.fail "survivor session lost");
  (* Re-adding under the evicted name starts a fresh session (and evicts
     the current LRU, "c"). *)
  add "b";
  Alcotest.(check int) "second eviction" 2 (Engine.session_evictions engine);
  Alcotest.(check int) "count stays at the cap" 3 (Engine.session_count engine);
  (match Engine.create ~max_sessions:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_sessions 0: expected Invalid_argument")

let suite =
  [
    Alcotest.test_case "frame chunked roundtrip" `Quick test_frame_chunked_roundtrip;
    Alcotest.test_case "frame bad headers" `Quick test_frame_bad_headers;
    Alcotest.test_case "frame channel io" `Quick test_frame_channel_io;
    Alcotest.test_case "frame EOF mid-frame" `Quick test_frame_eof_mid_frame;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_digest_permutation_invariant;
    Alcotest.test_case "digest collision-free on workloads" `Quick
      test_digest_collision_free_on_workloads;
    Alcotest.test_case "digest sensitivity" `Quick test_digest_sensitivity;
    Alcotest.test_case "cached answers bit-identical" `Quick
      test_cached_answers_bit_identical;
    Alcotest.test_case "cache key discriminates" `Quick test_cache_key_discriminates;
    Alcotest.test_case "batch dedup and counters" `Quick
      test_batch_dedup_and_counters;
    Alcotest.test_case "cache capacity FIFO" `Quick test_cache_capacity_fifo;
    Alcotest.test_case "session LRU eviction" `Quick test_session_lru_eviction;
    Alcotest.test_case "engine error responses" `Quick test_engine_error_responses;
    Alcotest.test_case "loadgen deterministic" `Quick test_loadgen_deterministic;
    Alcotest.test_case "loadgen replay stats" `Quick test_loadgen_replay_stats;
    Alcotest.test_case "session request roundtrip" `Quick
      test_session_request_roundtrip;
    Alcotest.test_case "session request validation" `Quick
      test_session_request_validation;
    Alcotest.test_case "rowsum tracks digest" `Quick test_rowsum_tracks_digest;
    Alcotest.test_case "session digest never stale" `Quick
      test_session_digest_never_stale;
    Alcotest.test_case "session shares cache with stateless" `Quick
      test_session_shares_cache_with_stateless;
    Alcotest.test_case "session error paths" `Quick test_session_error_paths;
    Alcotest.test_case "session metrics" `Quick test_session_metrics;
  ]
