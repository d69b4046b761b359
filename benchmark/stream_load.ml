(* stream-churn: one in-process [Oracle.Session] absorbing a long
   add/remove stream with an [omega_star] query after every event, timed
   per event.  As in bench/'s stream/churn at most 64 unit jobs live in a
   6x6 box, but the live count stays between [min_live] and 64: an
   event's cost grows with the live count, and a walk over all of 0..64
   mixes too slowly for runs of different seeds to see the same mix of
   states. *)

type sizes = {
  warmup : int;  (** untimed events ending each set-up *)
  round : int;  (** events per timed round *)
  check_every : int;  (** session vs one-shot oracle, every n-th event *)
  traced : int;  (** events per pass of the traced run *)
}

let default_sizes = { warmup = 2_000; round = 5_000; check_every = 100; traced = 10_000 }
let setup_reps = 3
let side = 6
let max_live = 64
let min_live = 48

type event = Add of Point.t | Remove of Point.t

(* The event stream: remove a random live job when the box holds
   [max_live] of them or, above [min_live], on a coin flip; else add one
   at a random cell. *)
type gen = { rng : Rng.t; mutable live : Point.t array; mutable n : int }

let gen ~seed = { rng = Rng.create seed; live = Array.make max_live [||]; n = 0 }

let next g =
  if g.n >= max_live || (g.n > min_live && Rng.int g.rng 2 = 0) then begin
    let k = Rng.int g.rng g.n in
    let p = g.live.(k) in
    g.live.(k) <- g.live.(g.n - 1);
    g.n <- g.n - 1;
    Remove p
  end
  else begin
    let p = [| Rng.int g.rng side; Rng.int g.rng side |] in
    g.live.(g.n) <- p;
    g.n <- g.n + 1;
    Add p
  end

let apply s = function
  | Add p -> Oracle.Session.add_job s p
  | Remove p -> Oracle.Session.remove_job s p

(* A fresh session brought to its steady state by [warmup] events. *)
let setup sizes ~seed =
  let g = gen ~seed in
  let s = Oracle.Session.create (Demand_map.empty 2) in
  for _ = 1 to sizes.warmup do
    apply s (next g);
    ignore (Oracle.Session.omega_star s)
  done;
  (g, s)

let timed_setup sizes ~seed =
  let times = Array.make setup_reps 0.0 in
  let last = ref None in
  for k = 0 to setup_reps - 1 do
    let t0 = Metrics.now_ns () in
    last := Some (setup sizes ~seed);
    times.(k) <- (Metrics.now_ns () -. t0) /. 1e9
  done;
  (Option.get !last, Quantile.median times)

(* Session answer vs a from-scratch oracle call on the same demand. *)
let check (dm, v) = Float.equal v (Oracle.omega_star dm)

let value_digest h (_, v) = Fnv.add_int h (Int64.to_int (Int64.bits_of_float v))

let measure sizes ~seed ~seconds =
  let (g, s), setup_s = timed_setup sizes ~seed in
  let lat = Array.make sizes.round 0.0 in
  let p50 = ref [] and p90 = ref [] and p99 = ref [] and ops = ref [] in
  let events = ref 0 and failed = ref 0 and checked = ref 0 in
  let digest = ref Fnv.basis in
  let t_start = Metrics.now_ns () in
  while !events = 0 || Metrics.now_ns () -. t_start < seconds *. 1e9 do
    let kept = ref [] in
    let r0 = Metrics.now_ns () in
    for e = 1 to sizes.round do
      let ev = next g in
      let t0 = Metrics.now_ns () in
      apply s ev;
      let v = Oracle.Session.omega_star s in
      lat.(e - 1) <- Metrics.now_ns () -. t0;
      if e mod sizes.check_every = 0 then kept := (Oracle.Session.demand s, v) :: !kept
    done;
    let wall = Metrics.now_ns () -. r0 in
    let kept = List.rev !kept in
    if !events = 0 then digest := List.fold_left value_digest !digest kept;
    List.iter (fun c -> if not (check c) then incr failed) kept;
    checked := !checked + List.length kept;
    events := !events + sizes.round;
    let sorted = Quantile.sorted lat in
    p50 := Quantile.exact_sorted sorted 0.50 :: !p50;
    p90 := Quantile.exact_sorted sorted 0.90 :: !p90;
    p99 := Quantile.exact_sorted sorted 0.99 :: !p99;
    ops := (float_of_int sizes.round /. (wall /. 1e9)) :: !ops
  done;
  let med l = Quantile.median (Array.of_list l) in
  Printf.printf
    "stream-churn: %d rounds of %d events, median round p90 %.1f us p99 %.1f us \
     (not gated), %d/%d session answers equal to one-shot omega_star, \
     first-round answer digest %016x\n"
    (List.length !ops) sizes.round (med !p90 /. 1e3) (med !p99 /. 1e3)
    (!checked - !failed) !checked !digest;
  {
    Report.attempted = !events;
    failed = !failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("latency_p50_us", med !p50 /. 1e3);
        ("ops_per_s", med !ops);
        ("peak_rss_mb", Probe.peak_rss_mb None);
      ];
    missing = [];
  }

(* One pass of [sizes.traced] events from a fresh steady state, keeping
   every [check_every]-th live demand.  Counters and GC cover the event
   loop only. *)
let pass sp ~traced sizes ~seed =
  let g, s = setup sizes ~seed in
  let counters = Array.of_list Report.oracle_counters in
  let deltas = Array.make (Array.length counters) (Some 0) in
  let kept = ref [] in
  let g0 = Probe.gc () in
  let before = if traced then Probe.read_counters counters else [||] in
  let t0 = Metrics.now_ns () in
  for e = 1 to sizes.traced do
    let ev = next g in
    let id = Spans.enter sp ~parent:Spans.none "stream.event" in
    let op =
      Spans.enter sp ~parent:id
        (match ev with Add _ -> "session.add" | Remove _ -> "session.remove")
    in
    apply s ev;
    Spans.leave sp op;
    let q = Spans.enter sp ~parent:id "session.query" in
    let v = Oracle.Session.omega_star s in
    Spans.leave sp q;
    Spans.leave sp id;
    if e mod sizes.check_every = 0 then kept := (Oracle.Session.demand s, v) :: !kept
  done;
  let wall = Metrics.now_ns () -. t0 in
  if traced then Probe.accumulate deltas ~before ~after:(Probe.read_counters counters);
  let g1 = Probe.gc () in
  (wall, g0, g1, deltas, List.rev !kept)

(* The kept demands then go through the one-shot oracle, both as the
   output check and as the from-scratch baseline an incremental update
   is compared against. *)
let trace_run ~trace_path sizes ~seed =
  let plain_wall, _, _, _, plain_kept = pass (Spans.off ()) ~traced:false sizes ~seed in
  let sp = Spans.create (sizes.traced * 4) in
  let wall, g0, g1, deltas, kept = pass sp ~traced:true sizes ~seed in
  let coverage = Spans.total_self sp /. wall in
  let failed = ref 0 in
  List.iter
    (fun (dm, v) ->
      let o = Spans.enter sp ~parent:Spans.none "oracle.omega_star" in
      let fresh = Oracle.omega_star dm in
      Spans.leave sp o;
      if not (Float.equal v fresh) then incr failed)
    kept;
  List.iter (fun c -> if not (check c) then incr failed) plain_kept;
  Spans.write_chrome sp trace_path;
  let tbl = Spans.summarize sp in
  let counters, missing = Report.oracle_metrics deltas ~ops:sizes.traced in
  let checks = List.length kept + List.length plain_kept in
  Printf.printf
    "stream-churn traced: 2 passes of %d events, %d/%d session answers equal to \
     one-shot omega_star, answer digest %016x, %d spans (%d dropped) in %s\n"
    sizes.traced (checks - !failed) checks
    (List.fold_left value_digest Fnv.basis kept)
    sp.Spans.len sp.Spans.dropped trace_path;
  {
    Report.attempted = 2 * sizes.traced;
    failed = !failed;
    metrics =
      [
        ("session.add_ns", Spans.mean_ns tbl "session.add");
        ("session.remove_ns", Spans.mean_ns tbl "session.remove");
        ("session.query_ns", Spans.mean_ns tbl "session.query");
        ("session.query_p99_ns", Quantile.exact (Spans.durations sp "session.query") 0.99);
        ("oracle.omega_star_ns", Spans.mean_ns tbl "oracle.omega_star");
        ("trace.coverage", coverage);
        ("trace.overhead_frac", (wall /. plain_wall) -. 1.0);
      ]
      @ counters
      @ Probe.gc_metrics ~before:g0 ~after:g1 ~ops:sizes.traced;
    missing;
  }

let run ?(sizes = default_sizes) ~trace_path ~seed ~seconds () =
  match trace_path with
  | None -> measure sizes ~seed ~seconds
  | Some trace_path -> trace_run ~trace_path sizes ~seed
