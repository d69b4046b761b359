(* The metric keyspace and the one-line JSON result.  These tables are
   the source of truth BENCHMARK.json mirrors; test/ checks the two
   agree. *)

let workloads = [ "serve-hot"; "serve-cold"; "stream-churn"; "fleet-50k" ]

(* Printed by a --trace 0 run, for every workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_us", "us");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MiB");
  ]

(* Oracle work per operation, read from the library's counters. *)
let oracle_counters =
  [
    "oracle.lp_calls";
    "oracle.radius_brackets";
    "transport.feasibility_checks";
    "paramflow.probes";
    "maxflow.runs";
    "maxflow.relabels";
    "maxflow.global_relabels";
    "maxflow.gap_hits";
  ]

(* Simulator and protocol work per fleet run.  [des.events] reads the
   [des.events_dispatched] counter. *)
let fleet_counters =
  [
    ("des.events", "des.events_dispatched");
    ("des.messages_sent", "des.messages_sent");
    ("des.wheel_cascades", "des.wheel_cascades");
    ("des.channel_prunes", "des.channel_prunes");
    ("online.retries", "online.retries");
    ("online.heartbeats", "online.heartbeats");
    ("online.replacements", "online.replacements");
  ]

(* Printed by a --trace 1 run, for every workload; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("daemon.ping_rtt_us", "us");
    ("frame.encode_ns", "ns");
    ("frame.decode_ns", "ns");
    ("protocol.encode_ns", "ns");
    ("protocol.decode_ns", "ns");
    ("protocol.digest_ns", "ns");
    ("engine.self_ns", "ns");
    ("qcache.hit_ratio", "ratio");
    ("oracle.omega_star_ns", "ns");
    ("oracle.witness_ns", "ns");
    ("session.add_ns", "ns");
    ("session.remove_ns", "ns");
    ("session.query_ns", "ns");
    ("session.query_p99_ns", "ns");
  ]
  @ List.map (fun n -> (n, "count/op")) oracle_counters
  @ [ ("maxflow.global_relabels_per_run", "ratio") ]
  @ List.map (fun (n, _) -> (n, "count")) fleet_counters
  @ [
      ("des.bytes_per_vehicle", "B");
      ("des.events_per_s", "1/s");
      ("des.dispatch_ns", "ns");
      ("online.handler_ns", "ns");
      ("gc.minor_words_per_op", "words/op");
      ("gc.major_words_per_op", "words/op");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MiB");
      ("trace.coverage", "ratio");
      ("trace.overhead_frac", "ratio");
    ]

(* What one run measured.  [missing] names layer metrics whose source
   counter is absent from the registry: they are left out of the result
   rather than reported as 0. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  missing : string list;
}

(* Per-op values of [oracle_counters] (plus the global-relabel ratio)
   from accumulated deltas, as (metric, value) pairs; absent counters go
   to the missing list. *)
let oracle_metrics deltas ~ops =
  let per_op = float_of_int (max 1 ops) in
  let named = List.mapi (fun i n -> (n, deltas.(i))) oracle_counters in
  let present =
    List.filter_map
      (fun (n, d) -> Option.map (fun d -> (n, float_of_int d /. per_op)) d)
      named
  in
  let missing =
    List.filter_map (fun (n, d) -> if Option.is_none d then Some n else None) named
  in
  match (List.assoc "maxflow.global_relabels" named, List.assoc "maxflow.runs" named) with
  | Some g, Some r ->
      ( present
        @ [ ("maxflow.global_relabels_per_run", float_of_int g /. float_of_int (max 1 r)) ],
        missing )
  | _ -> (present, "maxflow.global_relabels_per_run" :: missing)

(* The result's metric set: exactly the declared names of the mode,
   layers this workload did not measure filled with 0, absent counters
   left out. *)
let complete ~trace o =
  let declared = if trace then per_layer else end_to_end in
  List.filter_map
    (fun (name, unit_) ->
      if List.mem name o.missing then None
      else
        match List.assoc_opt name o.metrics with
        | Some v -> Some (name, v, unit_)
        | None when trace -> Some (name, 0.0, unit_)
        | None -> failwith ("workload did not measure " ^ name))
    declared

let json_line ~correct ~trace o =
  let metrics =
    List.map
      (fun (name, v, unit_) ->
        if not (Float.is_finite v) then
          failwith (Printf.sprintf "metric %s is not finite" name);
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
      (complete ~trace o)
  in
  Json.to_string ~compact:true
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ("metrics", Json.Obj metrics);
       ])
