(* fleet-50k: [Online.run_fleet] on a 224x224 window (50,176 vehicles,
   one per vertex) serving 200 uniformly placed jobs plus the two corner
   pins that fix the window, at capacity 2.5 so every job exhausts its
   server and the replacement protocol runs, with lossy channels (drop
   0.02, dup 0.01).  One worker, eight bands.  No oracle runs: the time
   goes to the [Des] wheel and the protocol handlers.

   Each job lands in its own 4x4 cube.  At this capacity a relocated
   replacement arrives with too little energy to serve a second job in
   its cube, so with repeats some seeds leave a job unserved; the
   benchmark wants every operation to succeed.

   A run's work varies by several percent with the job placement and the
   channel faults, so each timed call simulates a fresh placement drawn
   from the run's seed and the median averages over them. *)

type sizes = { box_side : int; jobs : int }

let default_sizes = { box_side = 224; jobs = 200 }
let shards = 8
let cube_side = 4
let setup_reps = 3

(* Placement [k] of the run with this seed. *)
let workload sizes ~seed k =
  let rng = Rng.create (Fnv.of_ints [ seed; k ]) in
  let hi = sizes.box_side - 1 in
  let pins = [| [| 0; 0 |]; [| hi; hi |] |] in
  let per_row = (sizes.box_side + cube_side - 1) / cube_side in
  let cube p = (p.(0) / cube_side * per_row) + (p.(1) / cube_side) in
  let taken = Hashtbl.create (2 * sizes.jobs) in
  Array.iter (fun p -> Hashtbl.replace taken (cube p) ()) pins;
  let rec draw acc left =
    if left = 0 then List.rev acc
    else
      let p = [| Rng.int rng sizes.box_side; Rng.int rng sizes.box_side |] in
      if Hashtbl.mem taken (cube p) then draw acc left
      else begin
        Hashtbl.replace taken (cube p) ();
        draw (p :: acc) (left - 1)
      end
  in
  { Workload.name = "fleet"; dim = 2; jobs = Array.append (Array.of_list (draw [] sizes.jobs)) pins }

(* The budget is fleet-sized: a band's drain legitimately dispatches
   millions of deadline ticks. *)
let config ~seed =
  Online.config ~seed ~capacity:2.5 ~side:cube_side
    ~chaos:(Des.faults ~drop_p:0.02 ~dup_p:0.01 ())
    ~quiesce_budget:10_000_000 ()

let run_once cfg w = Online.run_fleet ~workers:1 ~shards cfg w

(* Failed jobs in one run: unserved ones plus livelocked drains. *)
let failures w (f : Online.fleet_outcome) =
  let a = f.Online.aggregate in
  Array.length w.Workload.jobs - a.Online.served + a.Online.livelocks

let digest (f : Online.fleet_outcome) = f.Online.aggregate.Online.trace_digest

(* Set-up: the run's first placement and one untimed warm-up call.
   Repeated, it must replay to the same trace digest, or every job of
   the repeat counts as failed. *)
let timed_setup sizes ~seed =
  let cfg = config ~seed in
  let times = Array.make setup_reps 0.0 in
  let digests = Array.make setup_reps 0 in
  let failed = ref 0 in
  for k = 0 to setup_reps - 1 do
    let t0 = Metrics.now_ns () in
    let w = workload sizes ~seed 0 in
    let f = run_once cfg w in
    times.(k) <- (Metrics.now_ns () -. t0) /. 1e9;
    digests.(k) <- digest f;
    failed :=
      !failed + if digests.(k) <> digests.(0) then Array.length w.Workload.jobs else failures w f
  done;
  (cfg, Quantile.median times, digests.(0), !failed)

let measure sizes ~seed ~seconds =
  let cfg, setup_s, digest0, setup_failed = timed_setup sizes ~seed in
  let jobs = sizes.jobs + 2 in
  let walls = ref [] and rates = ref [] in
  let failed = ref setup_failed and messages = ref 0 in
  let t_start = Metrics.now_ns () in
  while !walls = [] || Metrics.now_ns () -. t_start < seconds *. 1e9 do
    let w = workload sizes ~seed (List.length !walls + 1) in
    let t0 = Metrics.now_ns () in
    let f = run_once cfg w in
    let wall = Metrics.now_ns () -. t0 in
    let a = f.Online.aggregate in
    messages := !messages + a.Online.messages;
    walls := wall :: !walls;
    rates := (float_of_int a.Online.messages /. (wall /. 1e9)) :: !rates;
    failed := !failed + failures w f
  done;
  let calls = List.length !walls in
  let walls = Array.of_list !walls in
  Printf.printf
    "fleet-50k: %d timed runs of %d vehicles and %d jobs, slowest %.0f us (not \
     gated), %d messages in all, set-up trace digest %016x\n"
    calls (sizes.box_side * sizes.box_side) jobs
    (Quantile.exact walls 1.0 /. 1e3)
    !messages digest0;
  {
    Report.attempted = jobs * (calls + setup_reps);
    failed = !failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("latency_p50_us", Quantile.median walls /. 1e3);
        ("ops_per_s", Quantile.median (Array.of_list !rates));
        ("peak_rss_mb", Probe.peak_rss_mb None);
      ];
    missing = [];
  }

(* The Des-only kernel: [events] messages forwarded hop by hop through
   [procs] processes by 1024 concurrent tokens, with the fleet's default
   delay bounds — the wheel and dispatch cost of the same event count
   without any protocol handler work. *)
let des_kernel ~seed ~procs ~events =
  let des = Des.create ~rng:(Rng.create seed) () in
  let tokens = max 1 (min 1024 events) in
  let hops = max 1 (events / tokens) in
  for k = 0 to tokens - 1 do
    let src = k * procs / tokens in
    Des.send des ~src ~dst:((src + 1) mod procs) (hops - 1)
  done;
  let handler ~time:_ ~src:_ ~dst left =
    if left > 0 then Des.send des ~src:dst ~dst:((dst + 1) mod procs) (left - 1)
  in
  match Des.run_until_quiescent des ~handler with
  | Des.Quiescent -> Des.messages_delivered des
  | Des.Livelock _ -> failwith "Des kernel did not quiesce"

(* On one placement: a warm-up call, an unrecorded call and a traced
   call, which must all replay to one digest; then the Des kernel at the
   traced call's event count. *)
let trace_run ~trace_path sizes ~seed =
  let cfg = config ~seed in
  let w = workload sizes ~seed 0 in
  let warm = run_once cfg w in
  let t0 = Metrics.now_ns () in
  let plain = run_once cfg w in
  let plain_wall = Metrics.now_ns () -. t0 in
  let names = Array.of_list (List.map snd Report.fleet_counters) in
  let deltas = Array.make (Array.length names) (Some 0) in
  let sp = Spans.create 2 in
  let before = Probe.read_counters names in
  let g0 = Probe.gc () in
  let t0 = Metrics.now_ns () in
  let id = Spans.enter sp ~parent:Spans.none "online.run_fleet" in
  let f = run_once cfg w in
  Spans.leave sp id;
  let g1 = Probe.gc () in
  Probe.accumulate deltas ~before ~after:(Probe.read_counters names);
  let events = Option.value deltas.(0) ~default:0 in
  let k = Spans.enter sp ~parent:Spans.none "des.kernel" in
  let kernel_events = des_kernel ~seed ~procs:(sizes.box_side * sizes.box_side) ~events in
  Spans.leave sp k;
  let wall = Metrics.now_ns () -. t0 in
  Spans.write_chrome sp trace_path;
  let call_ns = Spans.duration sp id in
  let dispatch_ns = Spans.duration sp k /. float_of_int (max 1 kernel_events) in
  let failed =
    List.fold_left
      (fun acc r ->
        acc + if digest r <> digest warm then Array.length w.Workload.jobs else failures w r)
      0 [ warm; plain; f ]
  in
  Printf.printf
    "fleet-50k traced: %d events per run, Des kernel %d events, trace digest \
     %016x, spans in %s\n"
    events kernel_events (digest warm) trace_path;
  let counters =
    List.mapi (fun i (metric, _) -> (metric, Option.map float_of_int deltas.(i))) Report.fleet_counters
  in
  let event_metrics =
    [
      ("des.events_per_s", float_of_int events /. (call_ns /. 1e9));
      ("des.dispatch_ns", dispatch_ns);
      ("online.handler_ns", (call_ns /. float_of_int (max 1 events)) -. dispatch_ns);
    ]
  in
  let events_known = Option.is_some deltas.(0) in
  {
    Report.attempted = 3 * Array.length w.Workload.jobs;
    failed;
    metrics =
      List.filter_map (fun (n, v) -> Option.map (fun v -> (n, v)) v) counters
      @ (if events_known then event_metrics else [])
      @ [
          ("des.bytes_per_vehicle", f.Online.bytes_per_vehicle);
          ("trace.coverage", Spans.total_self sp /. wall);
          ("trace.overhead_frac", (call_ns /. plain_wall) -. 1.0);
        ]
      @ Probe.gc_metrics ~before:g0 ~after:g1 ~ops:1;
    missing =
      List.filter_map (fun (n, v) -> if Option.is_none v then Some n else None) counters
      @ if events_known then [] else List.map fst event_metrics;
  }

let run ?(sizes = default_sizes) ~trace_path ~seed ~seconds () =
  match trace_path with
  | None -> measure sizes ~seed ~seconds
  | Some trace_path -> trace_run ~trace_path sizes ~seed
