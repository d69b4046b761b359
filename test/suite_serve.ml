(* The serving stack: the frame codec, protocol
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

let response r_id r_cached r_result =
  { Protocol.r_id; r_cached; r_result; r_encoded = None }

(* One request answered as a batch of one. *)
let process engine req = (Engine.process_batch engine [| req |]).(0)

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
  Alcotest.(check (option string)) "decoder drained" None (Frame.next dec);
  (* Exact wire bytes, across the header's digit-count boundaries. *)
  List.iter
    (fun (payload, wire) ->
      Alcotest.(check string)
        (Printf.sprintf "wire form of %d bytes" (String.length payload))
        wire (Frame.encode payload))
    [
      ("", "0\n\n");
      ("123456789", "9\n123456789\n");
      ("0123456789", "10\n0123456789\n");
      (String.make 5000 'q', "5000\n" ^ String.make 5000 'q' ^ "\n");
    ]

let test_frame_bad_headers () =
  let rejects bytes =
    let dec = Frame.decoder () in
    Frame.feed_string dec bytes;
    match Frame.next dec with
    | exception Frame.Bad_frame _ -> ()
    | Some _ | None -> Alcotest.fail (Printf.sprintf "header %S must be rejected" bytes)
  in
  rejects "nope\n";
  rejects "12x34\n";
  rejects "\n";
  rejects (string_of_int (Frame.max_payload + 1) ^ "\n");
  (* Missing trailing newline after the payload. *)
  rejects "2\nabX";
  (* Headers [int_of_string] reads as a length, each followed by a
     payload of that length: only ASCII digits are a header. *)
  List.iter
    (fun header ->
      rejects
        (Printf.sprintf "%s\n%s\n" header (String.make (int_of_string header) 'x')))
    [ "0x14"; "+20"; "0_20"; "0b11"; "0o3"; "-0" ]

(* 1 MiB of digits and no newline: the decoder gives up within the
   longest legal header (9 bytes) instead of waiting for more, whether
   the run comes in one chunk or a byte at a time. *)
let test_frame_read_header_bounded () =
  let digits = String.make (1 lsl 20) '7' in
  let dec = Frame.decoder () in
  Frame.feed_string dec digits;
  (match Frame.next dec with
  | exception Frame.Bad_frame _ -> ()
  | Some _ | None -> Alcotest.fail "an unterminated header must raise Bad_frame");
  let dec = Frame.decoder () in
  let rec fed k =
    if k = String.length digits then Alcotest.fail "the header was never rejected"
    else begin
      Frame.feed_string dec (String.make 1 digits.[k]);
      match Frame.next dec with
      | exception Frame.Bad_frame _ -> k + 1
      | Some _ -> Alcotest.fail "no frame in a run of digits"
      | None -> fed (k + 1)
    end
  in
  Alcotest.(check int) "bytes fed before the rejection" 9 (fed 0)

(* The end of the stream: between frames it is clean, inside a header or
   a payload it is a bad frame that says which. *)
let test_frame_eof_mid_frame () =
  let finish bytes =
    let dec = Frame.decoder () in
    Frame.feed_string dec bytes;
    let rec drain () = match Frame.next dec with Some _ -> drain () | None -> () in
    drain ();
    match Frame.finish dec with () -> Ok () | exception Frame.Bad_frame m -> Error m
  in
  let check name want bytes = Alcotest.(check (result unit string)) name want (finish bytes) in
  check "empty stream" (Ok ()) "";
  check "after whole frames" (Ok ()) (Frame.encode "a" ^ Frame.encode "b\nc");
  check "inside a header" (Error "end of stream inside a frame header") "12";
  check "inside a payload" (Error "end of stream inside a 100-byte frame") "100\ntruncated";
  check "before the trailing newline"
    (Error "end of stream inside a 5-byte frame")
    (Frame.encode "ok" ^ "5\nhello")

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
      response 1 false (Ok (Protocol.Value (1.0 /. 3.0)));
      response 2 true (Ok (Protocol.Value 0.1));
      response 3 false (Ok (Protocol.Tight_set (Some ([ [| 0; 1 |]; [| 2; 2 |] ], 2.5))));
      response 4 true (Ok (Protocol.Tight_set None));
      response 5 false (Ok Protocol.Pong);
      response 6 false (Error "synthetic failure");
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
      let fresh = process engine req in
      let cached = process engine req in
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
  let r1 = process engine (Protocol.request ~id:0 Protocol.Omega_star dm) in
  let r2 = process engine (Protocol.request ~id:1 (Protocol.Lp_value 1) dm) in
  let r3 = process engine (Protocol.request ~id:2 Protocol.Witness dm) in
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
    ignore (process engine (Protocol.request ~id Protocol.Omega_star (small_demand seed)))
  in
  ask 0 41;
  ask 1 42;
  ask 2 43 (* evicts the entry for seed 41 *);
  Alcotest.(check int) "bounded" 2 (Engine.cache_size engine);
  let again =
    process engine (Protocol.request ~id:3 Protocol.Omega_star (small_demand 41))
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

(* A demand whose total wraps to 0 in unchecked arithmetic (four rows of
   2^61): both oracle ops must answer an error, not ω* = 0 and no
   witness. *)
let test_engine_wrapping_total () =
  let engine = Engine.create () in
  let dm = Demand_map.of_alist 2 (List.init 4 (fun x -> ([| x; 0 |], 1 lsl 61))) in
  List.iter
    (fun op ->
      let r = process engine (Protocol.request ~id:7 op dm) in
      let wire = Protocol.response_to_string r in
      Alcotest.(check bool)
        ("answered ok:false: " ^ wire)
        true
        (String.starts_with ~prefix:{|{"id":7,"ok":false,"error":"Energy.add|}
           wire))
    [ Protocol.Omega_star; Protocol.Witness ]

(* Unit demands at (0,0), (1,0), (2,0) and (3,2^61): the witness is all
   four points, whose bounding box's volume does not fit in an int.  It
   must be answered, with the ω the omega_star op gives. *)
let test_engine_witness_wrapping_hull () =
  let engine = Engine.create () in
  let dm =
    Demand_map.of_alist 2
      (List.map
         (fun p -> (p, 1))
         [ [| 0; 0 |]; [| 1; 0 |]; [| 2; 0 |]; [| 3; 1 lsl 61 |] ])
  in
  let r = process engine (Protocol.request ~id:8 Protocol.Witness dm) in
  Alcotest.(check string) "witness answered"
    ({|{"id":8,"ok":true,"cached":false,"witness":{"points":[[0,0],[1,0],|}
   ^ {|[2,0],[3,2305843009213693952]],"omega":1.0}}|})
    (Protocol.response_to_string r)

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
  let run op = process engine (Protocol.request ~session:"s" ~id:0 op dm0) in
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
    process engine (Protocol.request ?session ~id:0 op dm)
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
  let run ?session op = process engine (Protocol.request ?session ~id:0 op dm0)
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
    (process engine
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
    (response 0 false
       (Engine.evaluate (Protocol.request ~session:"s" ~id:0 Protocol.Session_query dm0)))

let test_session_metrics () =
  Metrics.reset ();
  let engine = Engine.create () in
  let dm0 = Demand_map.empty 2 in
  let run op = process engine (Protocol.request ~session:"m" ~id:0 op dm0) in
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
    process engine (Protocol.request ~session:name ~id:0 op dm0)
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

(* --- one-pass decoding: regressions --- *)

let rejects_request text =
  match Protocol.request_of_string text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "must reject %s" text

(* Duplicate rows whose total passes max_int used to wrap: the frame
   ending in 3 was answered 1.0, the one ending in 2 was answered 0.0 and
   left a zero-valued binding in the map. *)
let test_overflowing_rows () =
  List.iter
    (fun last ->
      match
        Protocol.request_of_string
          (Printf.sprintf
             "{\"id\":1,\"op\":\"omega_star\",\"dim\":2,\"demand\":[[0,0,%d],[0,0,%d],[0,0,%d]]}"
             max_int max_int last)
      with
      | Error e ->
          Alcotest.(check bool) ("overflow named: " ^ e) true
            (String.starts_with ~prefix:"Energy.add" e)
      | Ok _ -> Alcotest.failf "rows ending in %d must not wrap" last)
    [ 3; 2 ]

(* Members the old decoder read past: an ill-typed dim became 2, an
   ill-typed session was dropped, and a repeated member kept its first
   value. *)
let test_ill_typed_and_repeated_members () =
  List.iter rejects_request
    [
      {|{"id":1,"op":"omega_star","dim":2.5,"demand":[[0,0,1]]}|};
      {|{"id":1,"op":"omega_star","dim":"3","demand":[[0,0,1]]}|};
      {|{"id":1,"op":"session_query","session":5}|};
      {|{"id":1,"op":"ping","session":null}|};
      {|{"id":1,"id":2,"op":"ping"}|};
      {|{"id":1,"op":"ping","op":"shutdown"}|};
      {|{"id":1,"op":"omega_star","dim":2,"dim":3}|};
      {|{"id":1,"op":"omega_star","demand":[[0,0,1]],"demand":[[1,1,1]]}|};
      {|{"id":1,"op":"session_query","session":"a","session":"b"}|};
      {|{"id":1,"op":"omega_star","radius":1.5}|};
    ];
  (* Unknown members are skipped, but only when they are valid JSON. *)
  (match
     Protocol.request_of_string
       {|{"x":{"a":[1,-2.5e3,"s\n",null,true,false,{}]},"id":4,"op":"ping","x":[]}|}
   with
  | Ok r -> Alcotest.(check int) "unknown members skipped" 4 r.Protocol.id
  | Error e -> Alcotest.fail e);
  List.iter rejects_request
    [
      {|{"id":4,"op":"ping","x":[1,]}|};
      {|{"id":4,"op":"ping","x":tru}|};
      {|{"id":4,"op":"ping","x":"\q"}|};
    ]

(* A hit's allocation through the daemon's three steps: decode, engine,
   encode.  The tree decoder and the re-encoded answer took about 4,900
   words, and a demand map built one [Point.Map] insert per row about
   1,200. *)
let test_hit_allocation () =
  let reqs = Loadgen.queries ~seed:5 ~mix:Loadgen.Repeat_heavy ~n:2000 in
  let engine = Engine.create () in
  Array.iter (fun r -> ignore (process engine r)) reqs;
  let payloads = Array.map Protocol.request_to_string reqs in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  Array.iter
    (fun payload ->
      match Protocol.request_of_string payload with
      | Error e -> Alcotest.fail e
      | Ok req ->
          let resp = process engine req in
          if resp.Protocol.r_cached then incr hits;
          ignore (Sys.opaque_identity (Protocol.response_to_string resp)))
    payloads;
  let words = (Gc.minor_words () -. before) /. float_of_int !hits in
  Alcotest.(check int) "every request hits" 2000 !hits;
  if words > 600.0 then Alcotest.failf "%.1f minor words per hit, above 600" words

(* --- the daemon binary --- *)

let serve_exe = Filename.concat ".." (Filename.concat "bin" "cmvrp_serve.exe")

(* [cmvrp_serve daemon --stdio] on [input]: its exit status and the bytes
   it wrote. *)
let stdio_daemon input =
  let infile = Filename.temp_file "cmvrp_stdio_in" ".bin" in
  let outfile = Filename.temp_file "cmvrp_stdio_out" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove infile;
      Sys.remove outfile)
    (fun () ->
      Out_channel.with_open_bin infile (fun oc -> output_string oc input);
      let status =
        Sys.command
          (Filename.quote_command serve_exe ~stdin:infile ~stdout:outfile ~stderr:Filename.null
             [ "daemon"; "--stdio"; "--quiet" ])
      in
      (status, In_channel.with_open_bin outfile In_channel.input_all))

let show_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by %d" n

(* A socket daemon in a child process, started through [sh -c] after the
   shell command [setup] (a [ulimit], say).  [f] gets the socket's path;
   then a shutdown request must be answered, and [f]'s result comes back
   with the daemon's exit status.  A daemon still running when [f] fails
   is killed. *)
let with_socket_daemon ?(setup = "") f =
  (* A daemon that dies must fail the test with EPIPE, not kill the
     runner with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = Filename.temp_file "cmvrp_daemon" ".sock" in
  Sys.remove path;
  let null = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process "sh"
      [| "sh"; "-c"; setup ^ {|exec "$0" daemon --socket "$1" --quiet|}; serve_exe; path |]
      null null null
  in
  Unix.close null;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let result = f path in
      Alcotest.(check (result unit string)) "shutdown answered" (Ok ())
        (Loadgen.send_shutdown ~socket:path ());
      let _, status = Unix.waitpid [] pid in
      reaped := true;
      (result, status))

let connect path =
  match Loadgen.connect path with Ok fd -> fd | Error e -> Alcotest.fail e

(* Writes [bytes] to [fd], then half-closes it: the daemon reads the end
   of the stream right after them. *)
let send_and_half_close fd bytes =
  let n = String.length bytes in
  let rec write off = if off < n then write (off + Unix.write_substring fd bytes off (n - off)) in
  write 0;
  Unix.shutdown fd Unix.SHUTDOWN_SEND

(* Every byte [fd] delivers until its end, then closes it; fails after
   ten seconds of silence. *)
let read_to_end fd =
  let out = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> Alcotest.fail "no reply within 10 s"
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents out
        | n ->
            Buffer.add_subbytes out chunk 0 n;
            go ())
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) go

(* The stdio daemon on a bad header: the ping before it is answered, then
   the bad frame gets the id -1 error and the daemon exits 1 (it used to
   die of the uncaught exception, or to read [0x14] as 20). *)
let test_stdio_bad_frame () =
  let status, output =
    stdio_daemon (Frame.encode {|{"id":1,"op":"ping"}|} ^ "0x14\n{\"id\":3,\"op\":\"ping\"}\n")
  in
  Alcotest.(check int) "exit status" 1 status;
  let dec = Frame.decoder () in
  Frame.feed_string dec output;
  let next () =
    match Frame.next dec with
    | Some payload -> Protocol.response_of_string payload
    | None -> Error "missing response"
  in
  (match next () with
  | Ok { Protocol.r_id = 1; r_result = Ok Protocol.Pong; _ } -> ()
  | _ -> Alcotest.fail "the ping before the bad frame is answered");
  (match next () with
  | Ok { Protocol.r_id = -1; r_result = Error e; _ } ->
      Alcotest.(check bool) ("bad frame named: " ^ e) true
        (String.starts_with ~prefix:"bad frame" e)
  | _ -> Alcotest.fail "the bad frame gets an id -1 error");
  Alcotest.(check (option string)) "nothing after it" None (Frame.next dec)

(* The same bytes over both transports: a ping, then a frame cut off
   inside its payload.  Both answer the ping and then give the truncated
   frame its id -1 error, byte for byte alike; stdio exits 1, and the
   socket daemon goes on serving.  The socket daemon used to answer the
   ping only. *)
let test_truncated_frame_both_transports () =
  let bytes = "20\n{\"id\":1,\"op\":\"ping\"}\n40\n{\"id\":2,\"op\":\"pi" in
  let status, stdio = stdio_daemon bytes in
  Alcotest.(check int) "stdio exit status" 1 status;
  Alcotest.(check string) "stdio replies"
    (Frame.encode {|{"id":1,"ok":true,"cached":false,"pong":true}|}
    ^ Frame.encode
        {|{"id":-1,"ok":false,"error":"bad frame: end of stream inside a 40-byte frame"}|})
    stdio;
  let socket, status =
    with_socket_daemon (fun path ->
        let fd = connect path in
        send_and_half_close fd bytes;
        read_to_end fd)
  in
  Alcotest.(check string) "socket replies = stdio replies" stdio socket;
  Alcotest.(check string) "socket daemon status" "exit 0" (show_status status)

(* Under [ulimit -n 12] the daemon runs out of descriptors before it has
   accepted every client; it used to die of [accept]'s EMFILE (exit 125).
   Now it serves the clients it holds and takes the waiting ones as
   earlier ones close. *)
let test_daemon_out_of_descriptors () =
  let ping id = Frame.encode (Printf.sprintf {|{"id":%d,"op":"ping"}|} id) in
  let pong id =
    Frame.encode (Printf.sprintf {|{"id":%d,"ok":true,"cached":false,"pong":true}|} id)
  in
  let (), status =
    with_socket_daemon ~setup:"ulimit -n 12 && " (fun path ->
        let first = connect path in
        let idle = List.init 16 (fun _ -> connect path) in
        let late = connect path in
        send_and_half_close late (ping 2);
        (* time for the daemon to accept until it runs out *)
        Unix.sleepf 0.3;
        send_and_half_close first (ping 1);
        Alcotest.(check string) "the first client is answered" (pong 1) (read_to_end first);
        List.iter Unix.close idle;
        Alcotest.(check string) "the late client is answered" (pong 2) (read_to_end late))
  in
  Alcotest.(check string) "daemon status" "exit 0" (show_status status)

(* A socket path that cannot be bound is a usage error that names the
   path (exit 2), not an internal error (exit 125). *)
let test_daemon_unbindable_socket () =
  let file = Filename.temp_file "cmvrp_not_a_dir" "" in
  let err = Filename.temp_file "cmvrp_daemon_err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Sys.remove err)
    (fun () ->
      let path = Filename.concat file "s" in
      let status =
        Sys.command
          (Filename.quote_command serve_exe ~stderr:err [ "daemon"; "--socket"; path; "--quiet" ])
      in
      Alcotest.(check int) "exit status" 2 status;
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check bool) ("message: " ^ msg) true
        (String.starts_with ~prefix:("cmvrp_serve daemon: cannot listen on " ^ path ^ ": ") msg))

(* The stdio daemon started with stdin or stdout closed names the
   descriptor and exits 2 before serving (it used to die of the uncaught
   [Unix_error(EBADF, _)], exit 125).  One open in the wrong mode
   reports EBADF to [read] or [write], which ends the one connection,
   and the daemon exits the same way. *)
let test_stdio_closed_descriptor () =
  let infile = Filename.temp_file "cmvrp_stdio_in" ".bin" in
  let sink = Filename.temp_file "cmvrp_stdio_sink" ".bin" in
  let err = Filename.temp_file "cmvrp_daemon_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ infile; sink; err ])
    (fun () ->
      Out_channel.with_open_bin infile (fun oc ->
          output_string oc (Frame.encode {|{"id":1,"op":"ping"}|}));
      List.iter
        (fun (redirect, name) ->
          let status =
            Sys.command
              (Filename.quote_command "sh" ~stdin:infile ~stderr:err
                 [ "-c"; {|exec "$0" daemon --stdio --quiet |} ^ redirect; serve_exe ])
          in
          Alcotest.(check int) (redirect ^ ": exit status") 2 status;
          Alcotest.(check string) (redirect ^ ": message")
            (Printf.sprintf "cmvrp_serve daemon: %s is not open\n" name)
            (In_channel.with_open_bin err In_channel.input_all))
        [
          ("<&-", "stdin");
          (">&-", "stdout");
          ("0>>" ^ Filename.quote sink, "stdin");
          ("1<" ^ Filename.quote infile, "stdout");
        ])

(* --- fuzz: Frame and Protocol against an independent reference --- *)

let choose rng a = a.(Rng.int rng (Array.length a))

let odd_bytes =
  [| 'a'; 'Z'; '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031'; '\127'; '\xc3'; '\xa9'; ' '; '/' |]

let random_name rng = String.init (Rng.int rng 7) (fun _ -> choose rng odd_bytes)

let random_int rng =
  match Rng.int rng 10 with
  | 0 -> choose rng [| max_int; min_int; 0; -1 |]
  | 1 -> Int64.to_int (Rng.int64 rng)
  | _ -> Rng.int_in rng (-1000) 1000

let random_point rng dim = Array.init dim (fun _ -> random_int rng)

(* Dimensions 1-3, negative and extreme coordinates, every op, odd
   session names, extreme ids. *)
let random_request rng =
  let dim = Rng.int_in rng 1 3 in
  let rows =
    List.init (Rng.int rng 7) (fun _ ->
        ( (if Rng.int rng 4 = 0 then random_point rng dim
           else Array.init dim (fun _ -> Rng.int_in rng (-3) 3)),
          if Rng.int rng 8 = 0 then Rng.int_in rng 0 1_000_000_000 else Rng.int_in rng 0 9 ))
  in
  let op =
    match Rng.int rng 8 with
    | 0 -> Protocol.Omega_star
    | 1 -> Protocol.Lp_value (Rng.int rng 6)
    | 2 -> Protocol.Witness
    | 3 -> Protocol.Ping
    | 4 -> Protocol.Shutdown
    | 5 -> Protocol.Session_add (random_point rng dim)
    | 6 -> Protocol.Session_remove (random_point rng dim)
    | _ -> Protocol.Session_query
  in
  let session = if Rng.bool rng then Some (random_name rng) else None in
  Protocol.request ?session ~id:(random_int rng) op (Demand_map.of_alist dim rows)

let same_request (a : Protocol.request) (b : Protocol.request) =
  a.Protocol.id = b.Protocol.id
  && a.Protocol.op = b.Protocol.op
  && Option.equal String.equal a.Protocol.session b.Protocol.session
  && demand_equal a.Protocol.demand b.Protocol.demand
  && a.Protocol.digest = b.Protocol.digest

let json_string s =
  let buf = Buffer.create 16 in
  Json.write_string buf s;
  Buffer.contents buf

let whitespace = [| ""; ""; " "; "\n"; "\t"; "\r\n  " |]

(* [items] between brackets, separated by commas. *)
let bracketed items =
  ("[" :: List.concat (List.mapi (fun i x -> (if i > 0 then [ "," ] else []) @ x) items)) @ [ "]" ]

let tokens_of_ints xs = bracketed (List.map (fun x -> [ string_of_int x ]) xs)

(* Members the request does not carry, some of them errors: a repeat, a
   wrong type, "scale".  Keys are JSON tokens; the last spells "id" with
   an escape, so it repeats "id" only once decoded. *)
let noise_members =
  [
    ("\"dim\"", [ "\"3\"" ]); ("\"dim\"", [ "2.5" ]); ("\"session\"", [ "5" ]);
    ("\"session\"", [ "null" ]); ("\"id\"", [ "7" ]); ("\"scale\"", [ "1" ]);
    ("\"radius\"", [ "-1" ]); ("\"radius\"", [ "1e2" ]); ("\"point\"", tokens_of_ints [ 1; 2 ]);
    ("\"demand\"", [ "["; "]" ]); ("\"op\"", [ "\"ping\"" ]); ("\"y\"", [ "\"\\u00e9\"" ]);
    ("\"x\"", [ "{"; "\"a\""; ":"; "["; "1"; ","; "-2.5e3"; ","; "null"; ","; "true"; "]"; "}" ]);
    ("\"\\u0069d\"", [ "8" ]);
  ]

let op_name = function
  | Protocol.Omega_star -> "omega_star"
  | Protocol.Lp_value _ -> "lp_value"
  | Protocol.Witness -> "witness"
  | Protocol.Ping -> "ping"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Session_add _ -> "session_add"
  | Protocol.Session_remove _ -> "session_remove"
  | Protocol.Session_query -> "session_query"

(* The request as tokens: its members in a random order, its rows
   shuffled, some rows split in two on the same point or joined by a
   zero-valued twin (the same demand either way), and each noise member
   with probability 1/6 when [noise]. *)
let member_tokens rng ~noise (r : Protocol.request) =
  let rows =
    Array.of_list
      (Demand_map.fold r.Protocol.demand ~init:[] ~f:(fun acc p v ->
           let row v = Array.to_list p @ [ v ] in
           match Rng.int rng 8 with
           | 0 when v >= 2 ->
               let a = Rng.int_in rng 1 (v - 1) in
               row a :: row (v - a) :: acc
           | 1 -> row v :: row 0 :: acc
           | _ -> row v :: acc))
  in
  Rng.shuffle rng rows;
  let demand = bracketed (List.map tokens_of_ints (Array.to_list rows)) in
  let own =
    [
      ("id", [ string_of_int r.Protocol.id ]);
      ("op", [ json_string (op_name r.Protocol.op) ]);
      ("dim", [ string_of_int (Demand_map.dim r.Protocol.demand) ]);
      ("demand", demand);
    ]
    @ (match r.Protocol.session with Some s -> [ ("session", [ json_string s ]) ] | None -> [])
    @
    match r.Protocol.op with
    | Protocol.Lp_value radius -> [ ("radius", [ string_of_int radius ]) ]
    | Protocol.Session_add p | Protocol.Session_remove p ->
        [ ("point", tokens_of_ints (Array.to_list p)) ]
    | _ -> []
  in
  let extra = if noise then List.filter (fun _ -> Rng.int rng 6 = 0) noise_members else [] in
  let members = Array.of_list (List.map (fun (k, v) -> (json_string k, v)) own @ extra) in
  Rng.shuffle rng members;
  ("{"
  :: List.concat
       (List.mapi
          (fun i (k, v) -> (if i > 0 then [ "," ] else []) @ (k :: ":" :: v))
          (Array.to_list members)))
  @ [ "}" ]

let spaced rng tokens =
  String.concat "" (List.concat_map (fun t -> [ choose rng whitespace; t ]) tokens)
  ^ choose rng whitespace

let json_bytes = "{}[],:\"\\0123456789-+.eEtrufalsn \n\t\000\255"

(* One to four flipped, inserted or deleted bytes, or a truncation. *)
let mutate rng text =
  let b = ref text in
  for _ = 0 to Rng.int rng 4 do
    let s = !b and n = String.length !b in
    let pos = if n = 0 then 0 else Rng.int rng n in
    let byte () =
      if Rng.bool rng then String.make 1 json_bytes.[Rng.int rng (String.length json_bytes)]
      else String.make 1 (Char.chr (Rng.int rng 256))
    in
    b :=
      match Rng.int rng 4 with
      | 0 when n > 0 -> String.sub s 0 pos ^ byte () ^ String.sub s (pos + 1) (n - pos - 1)
      | 1 -> String.sub s 0 pos ^ byte () ^ String.sub s pos (n - pos)
      | 2 when n > 0 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
      | _ -> String.sub s 0 pos
  done;
  !b

let random_bytes rng = String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256))

let random_float rng =
  match Rng.int rng 6 with
  | 0 ->
      choose rng
        [| 0.0; -0.0; 5e-324; 2.2250738585072009e-308; 1e15; -1e15; 1e16 +. 2.0;
           123456789012345678.0; 1.0 /. 3.0; 0.1; Float.max_float |]
  | 1 -> float_of_int (random_int rng)
  | 2 -> Int64.float_of_bits (Int64.of_int (Rng.int rng (1 lsl 52)))
  | _ ->
      let f = Int64.float_of_bits (Rng.int64 rng) in
      if Float.is_finite f then f else 1.5

let random_response rng =
  let answer =
    match Rng.int rng 4 with
    | 0 -> Protocol.Value (random_float rng)
    | 1 -> Protocol.Tight_set None
    | 2 ->
        let dim = Rng.int_in rng 1 3 in
        let points = List.init (Rng.int rng 4) (fun _ -> random_point rng dim) in
        Protocol.Tight_set (Some (points, random_float rng))
    | _ -> Protocol.Pong
  in
  let r_id = random_int rng in
  if Rng.int rng 5 = 0 then
    { Protocol.r_id; r_cached = false; r_result = Error (random_name rng); r_encoded = None }
  else
    {
      Protocol.r_id;
      r_cached = Rng.bool rng;
      r_result = Ok answer;
      r_encoded = (if Rng.bool rng then Some (Protocol.encode_answer answer) else None);
    }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_response (a : Protocol.response) (b : Protocol.response) =
  a.Protocol.r_id = b.Protocol.r_id
  &&
  match (a.Protocol.r_result, b.Protocol.r_result) with
  | Error x, Error y -> String.equal x y
  | Ok x, Ok y -> (
      Bool.equal a.Protocol.r_cached b.Protocol.r_cached
      &&
      match (x, y) with
      | Protocol.Value u, Protocol.Value v -> same_bits u v
      | Protocol.Tight_set (Some (ps, u)), Protocol.Tight_set (Some (qs, v)) ->
          same_bits u v && List.equal Point.equal ps qs
      | _ -> Protocol.answer_equal x y)
  | _ -> false

let seeds name count law = QCheck.Test.make ~name ~count (QCheck.int_bound (1 lsl 30)) law

let prop_decoders_never_raise =
  seeds "decoders return Ok or Error on mutated and random input" 400 (fun seed ->
      let rng = Rng.create seed in
      let req = random_request rng in
      let texts =
        [ random_bytes rng; mutate rng (Protocol.request_to_string req);
          mutate rng (spaced rng (member_tokens rng ~noise:true req));
          mutate rng (Protocol.response_to_string (random_response rng)) ]
      in
      List.for_all
        (fun text ->
          (match Protocol.request_of_string text with Ok _ | Error _ -> true)
          && match Protocol.response_of_string text with Ok _ | Error _ -> true)
        texts)

let prop_frame_raises_only_bad_frame =
  seeds "Frame.next raises nothing but Bad_frame" 400 (fun seed ->
      let rng = Rng.create seed in
      let wire =
        String.concat ""
          (List.init (Rng.int_in rng 1 3) (fun _ ->
               Frame.encode (Protocol.request_to_string (random_request rng))))
      in
      List.for_all
        (fun bytes ->
          let dec = Frame.decoder () in
          Frame.feed_string dec bytes;
          let rec drain () = match Frame.next dec with Some _ -> drain () | None -> () in
          match drain () with () -> true | exception Frame.Bad_frame _ -> true)
        [ mutate rng wire; random_bytes rng; wire ])

let prop_agrees_with_reference =
  seeds "request decoder agrees with the tree-based reference" 1500 (fun seed ->
      let rng = Rng.create seed in
      let req = random_request rng in
      let source =
        if Rng.bool rng then Protocol.request_to_string req
        else spaced rng (member_tokens rng ~noise:true req)
      in
      let text = if Rng.int rng 4 = 0 then source else mutate rng source in
      match (Protocol.request_of_string text, Reference.request_of_string text) with
      | Error _, Error _ -> true
      | Ok a, Ok b when same_request a b -> true
      | got, want ->
          let show = function Ok r -> Protocol.request_to_string r | Error e -> "Error " ^ e in
          QCheck.Test.fail_reportf "input %S: decoder %s, reference %s" text (show got) (show want))

let prop_request_roundtrip =
  seeds "request encode then decode is the identity" 500 (fun seed ->
      let req = random_request (Rng.create seed) in
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok back -> same_request req back
      | Error e -> QCheck.Test.fail_reportf "%s: %s" (Protocol.request_to_string req) e)

let prop_response_roundtrip =
  seeds "response encode then decode is the identity" 500 (fun seed ->
      let resp = random_response (Rng.create seed) in
      let text = Protocol.response_to_string resp in
      String.equal text (Protocol.response_to_string { resp with Protocol.r_encoded = None })
      &&
      match Protocol.response_of_string text with
      | Ok back -> same_response resp back
      | Error e -> QCheck.Test.fail_reportf "%s: %s" text e)

let prop_member_order =
  seeds "shuffled members and whitespace decode like the compact form" 500 (fun seed ->
      let rng = Rng.create seed in
      let req = random_request rng in
      match
        ( Protocol.request_of_string (Protocol.request_to_string req),
          Protocol.request_of_string (spaced rng (member_tokens rng ~noise:false req)) )
      with
      | Ok a, Ok b -> same_request a b && same_request req b
      | _ -> false)

let suite =
  [
    Alcotest.test_case "frame chunked roundtrip" `Quick test_frame_chunked_roundtrip;
    Alcotest.test_case "frame bad headers" `Quick test_frame_bad_headers;
    Alcotest.test_case "frame EOF mid-frame" `Quick test_frame_eof_mid_frame;
    Alcotest.test_case "frame read header bounded" `Quick test_frame_read_header_bounded;
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
    Alcotest.test_case "engine wrapping total" `Quick test_engine_wrapping_total;
    Alcotest.test_case "engine witness on a wrapping hull" `Quick
      test_engine_witness_wrapping_hull;
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
    Alcotest.test_case "overflowing rows are an error" `Quick test_overflowing_rows;
    Alcotest.test_case "ill-typed and repeated members" `Quick
      test_ill_typed_and_repeated_members;
    Alcotest.test_case "hit allocation" `Quick test_hit_allocation;
    Alcotest.test_case "stdio daemon on a bad frame" `Quick test_stdio_bad_frame;
    Alcotest.test_case "truncated frame on both transports" `Quick
      test_truncated_frame_both_transports;
    Alcotest.test_case "socket daemon out of descriptors" `Quick
      test_daemon_out_of_descriptors;
    Alcotest.test_case "daemon on an unbindable socket" `Quick test_daemon_unbindable_socket;
    Alcotest.test_case "stdio daemon with a closed descriptor" `Quick
      test_stdio_closed_descriptor;
    QCheck_alcotest.to_alcotest prop_decoders_never_raise;
    QCheck_alcotest.to_alcotest prop_frame_raises_only_bad_frame;
    QCheck_alcotest.to_alcotest prop_agrees_with_reference;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_member_order;
  ]
