let m_requests = Metrics.counter "serve.requests"
let m_batches = Metrics.counter "serve.batches"
let m_hits = Metrics.counter "serve.cache_hits"
let m_misses = Metrics.counter "serve.cache_misses"
let m_oracle_calls = Metrics.counter "serve.oracle_calls"
let m_errors = Metrics.counter "serve.errors"
let m_cache_size = Metrics.gauge "serve.cache_size"
let m_batch_size = Metrics.gauge "serve.batch_size"
let m_batch_span = Metrics.timer "serve.batch"
let m_latency = Metrics.histogram "serve.request_latency_ns"
let m_session_ops = Metrics.counter "serve.session_ops"
let m_sessions = Metrics.gauge "serve.sessions"
let m_evictions = Metrics.counter "serve.session_evictions"

(* A server-side streaming session: the incremental oracle plus the
   running digest row sum of its live demand, updated in O(1) per
   mutation so a query's cache key never recomputes the digest from
   scratch (and shares entries with stateless [Omega_star] requests on
   the same demand).  [s_touched] is the engine's logical clock at the
   session's last use, the LRU eviction key. *)
type session = {
  ses : Oracle.Session.t;
  mutable s_rowsum : int;
  mutable s_touched : int;
}

(* Each cached answer sits next to its encoded wire member, so a hit
   writes stored bytes. *)
type t = {
  cache : (Protocol.answer * Protocol.encoded) Qcache.t;
  sessions : (string, session) Hashtbl.t;
  max_sessions : int;
  mutable clock : int;
  mutable evictions : int;
}

let create ?(cache_capacity = 4096) ?(max_sessions = 64) () =
  if max_sessions < 1 then
    invalid_arg "Engine.create: max_sessions must be positive";
  {
    cache = Qcache.create ~capacity:cache_capacity ();
    sessions = Hashtbl.create 16;
    max_sessions;
    clock = 0;
    evictions = 0;
  }

let cache_size t = Qcache.size t.cache
let session_count t = Hashtbl.length t.sessions
let session_evictions t = t.evictions

let touch t s =
  t.clock <- t.clock + 1;
  s.s_touched <- t.clock

(* Evict least-recently-used sessions until a new one fits.  Each
   session holds warm flow arenas, so an unbounded table is a memory
   leak under client churn; 64 live incremental oracles is already
   generous.  Ties (never produced by [touch]) break on the name to
   stay deterministic. *)
let evict_for_insert t =
  while Hashtbl.length t.sessions >= t.max_sessions do
    let victim =
      Hashtbl.fold
        (fun name s acc ->
          match acc with
          | Some (_, best) when best.s_touched < s.s_touched -> acc
          | Some (bn, best)
            when best.s_touched = s.s_touched && String.compare bn name <= 0 ->
              acc
          | _ -> Some (name, s))
        t.sessions None
    in
    match victim with
    | None -> assert false (* length >= max_sessions >= 1 *)
    | Some (name, _) ->
        Hashtbl.remove t.sessions name;
        t.evictions <- t.evictions + 1;
        Metrics.incr m_evictions
  done

let wants_shutdown (r : Protocol.request) =
  match r.Protocol.op with Protocol.Shutdown -> true | _ -> false

(* An oracle call on request content: what the content can make it raise
   (bad arguments, a demand too large for the integer flow network)
   becomes an [Error] answer. *)
let guarded f =
  try Ok (f ()) with Invalid_argument m | Failure m | Energy.Overflow m -> Error m

(* One oracle evaluation — the exact code path a one-shot CLI call takes,
   which is what makes cached and fresh answers interchangeable.  Runs
   inside the Pool fan-out, so failures are captured as values here and
   never tear down sibling computations. *)
let evaluate (req : Protocol.request) : (Protocol.answer, string) result =
  let dm = req.Protocol.demand in
  match req.Protocol.op with
  | Protocol.Ping | Protocol.Shutdown -> Ok Protocol.Pong
  | Protocol.Omega_star -> guarded (fun () -> Protocol.Value (Oracle.omega_star dm))
  | Protocol.Lp_value radius ->
      guarded (fun () -> Protocol.Value (Oracle.lp_value ~radius dm))
  | Protocol.Witness -> guarded (fun () -> Protocol.Tight_set (Oracle.witness dm))
  | Protocol.Session_add _ | Protocol.Session_remove _ | Protocol.Session_query
    ->
      Error "session ops are stateful and have no stateless evaluation"

(* Per-request disposition after the probe phase. *)
type slot =
  | Control
  | Hit of (Protocol.answer * Protocol.encoded)
  | Miss of { key : Qcache.key; compute : int }
      (** [compute] indexes the deduplicated computation array; several
          batch slots may share one index (coalescing). *)
  | Done of {
      d_answer : (Protocol.answer, string) result;
      d_encoded : Protocol.encoded option;
      d_cached : bool;
    }
      (** session ops: fully handled during the probe phase, because the
          session state is control-domain confined and must never cross
          the [Pool] fan-out *)
  | Malformed of string

(* Session ops run entirely in the control domain.  Mutations patch the
   incremental oracle and the running digest row sum; queries close the
   row sum into a cache key over the live demand snapshot under the
   stateless [Omega_star] op, so a session query and a one-shot
   [Omega_star] request on the same demand share one cache entry. *)
let session_slot t (req : Protocol.request) =
  Metrics.incr m_session_ops;
  match req.Protocol.session with
  | None -> Malformed "session ops require a \"session\" name"
  | Some name -> (
      match (Hashtbl.find_opt t.sessions name, req.Protocol.op) with
      | found, Protocol.Session_add p -> (
          let s =
            match found with
            | Some s -> s
            | None ->
                evict_for_insert t;
                let s =
                  {
                    ses = Oracle.Session.create (Demand_map.empty (Array.length p));
                    s_rowsum = 0;
                    s_touched = 0;
                  }
                in
                Hashtbl.replace t.sessions name s;
                s
          in
          touch t s;
          let dm = Oracle.Session.demand s.ses in
          let before = Demand_map.value dm p in
          match Oracle.Session.add_job s.ses p with
          | exception Invalid_argument m -> Malformed m
          | () ->
              s.s_rowsum <-
                Protocol.rowsum_update ~dim:(Demand_map.dim dm)
                  ~rowsum:s.s_rowsum p ~before ~after:(before + 1);
              Done { d_answer = Ok Protocol.Pong; d_encoded = None; d_cached = false })
      | None, (Protocol.Session_remove _ | Protocol.Session_query) ->
          Malformed (Printf.sprintf "unknown session %S" name)
      | Some s, Protocol.Session_remove p -> (
          touch t s;
          let dm = Oracle.Session.demand s.ses in
          let before = Demand_map.value dm p in
          match Oracle.Session.remove_job s.ses p with
          | exception Invalid_argument m -> Malformed m
          | () ->
              s.s_rowsum <-
                Protocol.rowsum_update ~dim:(Demand_map.dim dm)
                  ~rowsum:s.s_rowsum p ~before ~after:(before - 1);
              Done { d_answer = Ok Protocol.Pong; d_encoded = None; d_cached = false })
      | Some s, Protocol.Session_query -> (
          touch t s;
          let dm = Oracle.Session.demand s.ses in
          let digest =
            Protocol.digest_of_rowsum ~dim:(Demand_map.dim dm)
              ~rowsum:s.s_rowsum
              ~support:(Demand_map.support_size dm)
          in
          let key = Qcache.key_with_digest ~digest ~op:Protocol.Omega_star dm in
          match Qcache.find t.cache key with
          | Some (answer, encoded) ->
              Metrics.incr m_hits;
              Done { d_answer = Ok answer; d_encoded = Some encoded; d_cached = true }
          | None -> (
              Metrics.incr m_misses;
              Metrics.incr m_oracle_calls;
              match guarded (fun () -> Protocol.Value (Oracle.Session.omega_star s.ses)) with
              | Ok answer ->
                  let encoded = Protocol.encode_answer answer in
                  Qcache.add t.cache key (answer, encoded);
                  Done { d_answer = Ok answer; d_encoded = Some encoded; d_cached = false }
              | Error _ as failed ->
                  Done { d_answer = failed; d_encoded = None; d_cached = false }))
      | _, _ -> assert false (* session_slot is only called on session ops *))

let process_batch t (reqs : Protocol.request array) =
  let n = Array.length reqs in
  if n = 0 then [||]
  else begin
    Metrics.incr m_batches;
    Metrics.add m_requests n;
    Metrics.set_gauge m_batch_size (float_of_int n);
    let t0 = Metrics.now_ns () in
    (* Probe: cache lookups and in-batch coalescing, control domain only. *)
    let unique_rev = ref [] and n_unique = ref 0 in
    let slots =
      Array.map
        (fun (req : Protocol.request) ->
          match req.Protocol.op with
          | Protocol.Ping | Protocol.Shutdown -> Control
          | Protocol.Session_add _ | Protocol.Session_remove _
          | Protocol.Session_query ->
              session_slot t req
          | Protocol.Omega_star | Protocol.Lp_value _ | Protocol.Witness -> (
              match
                Qcache.key_with_digest ~digest:req.Protocol.digest ~op:req.Protocol.op
                  req.Protocol.demand
              with
              | exception Invalid_argument m -> Malformed m
              | key -> (
                  match Qcache.find t.cache key with
                  | Some cached ->
                      Metrics.incr m_hits;
                      Hit cached
                  | None -> (
                      match
                        List.find_opt
                          (fun (k, _, _) -> Qcache.equal k key)
                          !unique_rev
                      with
                      | Some (_, _, i) ->
                          (* Coalesced onto an in-flight computation: the
                             oracle runs once, so it counts as a hit. *)
                          Metrics.incr m_hits;
                          Miss { key; compute = i }
                      | None ->
                          Metrics.incr m_misses;
                          let i = !n_unique in
                          incr n_unique;
                          unique_rev := (key, req, i) :: !unique_rev;
                          Miss { key; compute = i }))))
        reqs
    in
    (* Compute: distinct misses fan out through the Domain pool. *)
    let uniques = Array.of_list (List.rev !unique_rev) in
    Metrics.add m_oracle_calls (Array.length uniques);
    let computed = Pool.map (fun (_, req, _) -> evaluate req) uniques in
    (* Publish: encode each fresh answer once, fill the cache, then
       answer in request order. *)
    let encoded =
      Array.mapi
        (fun i (key, _, _) ->
          match computed.(i) with
          | Ok answer ->
              let e = Protocol.encode_answer answer in
              Qcache.add t.cache key (answer, e);
              Some e
          | Error _ -> None)
        uniques
    in
    Metrics.set_gauge m_cache_size (float_of_int (Qcache.size t.cache));
    Metrics.set_gauge m_sessions (float_of_int (Hashtbl.length t.sessions));
    let responses =
      Array.map2
        (fun (req : Protocol.request) slot ->
          let r_cached, r_result, r_encoded =
            match slot with
            | Control -> (false, Ok Protocol.Pong, None)
            | Hit (answer, encoded) -> (true, Ok answer, Some encoded)
            | Miss { compute; _ } -> (false, computed.(compute), encoded.(compute))
            | Done { d_answer; d_encoded; d_cached } -> (d_cached, d_answer, d_encoded)
            | Malformed m -> (false, Error m, None)
          in
          if Result.is_error r_result then Metrics.incr m_errors;
          { Protocol.r_id = req.Protocol.id; r_cached; r_result; r_encoded })
        reqs slots
    in
    let elapsed = Metrics.now_ns () -. t0 in
    Metrics.add_ns m_batch_span elapsed;
    (* Per-request service latency: every request in the batch waited for
       the whole batch, so each observes the batch wall time.  The
       observation count (one per request) is the deterministic part. *)
    Array.iter (fun _ -> Metrics.observe m_latency elapsed) reqs;
    responses
  end
