(* Streaming oracle sessions: incremental ω* must be bit-identical to
   from-scratch recomputation after every insert/delete event, and a
   single-job delta must cost a bounded number of max-flow probes on the
   persistent arena. *)

let point2 x y = [| x; y |]
let m_fc = Metrics.counter "transport.feasibility_checks"
let m_probes = Metrics.counter "paramflow.probes"

let check_bit_identical msg s =
  let inc = Oracle.Session.omega_star s in
  let scratch = Oracle.omega_star (Oracle.Session.demand s) in
  if not (Float.equal inc scratch) then
    Alcotest.failf "%s: incremental %.17g <> from-scratch %.17g" msg inc scratch;
  inc

(* Hand-checkable single-site and two-site values: jobs at the origin have
   |N_0| = 1 and |N_1| = 5, so ω* = max(1, d/5) while it stays below 2. *)
let test_golden_trace () =
  let s = Oracle.Session.create (Demand_map.empty 2) in
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Oracle.Session.omega_star s);
  let o = point2 0 0 in
  let expect msg v =
    Alcotest.(check (float 1e-9)) msg v (check_bit_identical msg s)
  in
  Oracle.Session.add_job s o;
  expect "1 job" 1.0;
  Oracle.Session.add_job s o;
  expect "2 jobs" 1.0;
  for _ = 3 to 6 do
    Oracle.Session.add_job s o
  done;
  expect "6 jobs" 1.2;
  Oracle.Session.remove_job s o;
  expect "back to 5" 1.0;
  Oracle.Session.add_job s (point2 1 0);
  (* J = {origin}: 5/5; J = both: 6/8 — the singleton stays binding *)
  expect "second site" 1.0;
  for _ = 1 to 5 do
    Oracle.Session.remove_job s o
  done;
  Alcotest.(check int) "origin drained" 0
    (Demand_map.value (Oracle.Session.demand s) o);
  expect "one distant job left" 1.0;
  Oracle.Session.remove_job s (point2 1 0);
  expect "empty again" 0.0;
  (* revival of a retired site must keep matching from-scratch *)
  Oracle.Session.add_job s o;
  expect "revived origin" 1.0

let test_remove_absent_raises () =
  let s = Oracle.Session.create (Demand_map.empty 2) in
  Oracle.Session.add_job s (point2 0 0);
  Alcotest.check_raises "no job there"
    (Invalid_argument "Demand_map.remove: demand would become negative")
    (fun () -> Oracle.Session.remove_job s (point2 5 5));
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Oracle.Session.add_job: dimension mismatch") (fun () ->
      Oracle.Session.add_job s [| 1; 2; 3 |])

(* After the arena is warm, one insert-then-query delta costs a bounded
   number of probes: each live bracket re-solves warm.  The exact counts
   are gated in bench (stream/churn); here we pin a generous constant. *)
let test_delta_probe_bound () =
  let s = Oracle.Session.create (Demand_map.empty 2) in
  for _ = 1 to 4 do
    Oracle.Session.add_job s (point2 0 0)
  done;
  ignore (Oracle.Session.omega_star s);
  let fc0 = Metrics.count m_fc and pr0 = Metrics.count m_probes in
  Oracle.Session.add_job s (point2 0 0);
  let v = Oracle.Session.omega_star s in
  (* brackets 1 .. ⌊ω*⌋; bracket 0 is read in closed form *)
  let brackets = int_of_float (Float.floor v) in
  let fc = Metrics.count m_fc - fc0 and pr = Metrics.count m_probes - pr0 in
  Alcotest.(check int) "one warm solve per bracket" brackets fc;
  Alcotest.(check bool)
    (Printf.sprintf "a handful of probes (%d for %d brackets)" pr brackets)
    true
    (pr <= 8 * brackets)

(* The zero-probe certificate: removing a job outside the binding set
   lowers the target by exactly what the retained flow loses, and the cut
   the last solve probed still bounds the answer at the retained level,
   so every bracket re-solves without a max-flow run (a sweep from the
   trivial bound ⌈target/s⌉ would take 4 probes here).  Each bracket
   still counts one unsolved feasibility check. *)
let test_certificate_skips_probes () =
  let s = Oracle.Session.create (Demand_map.empty 2) in
  for _ = 1 to 6 do
    Oracle.Session.add_job s (point2 0 0)
  done;
  Oracle.Session.add_job s (point2 4 4);
  Oracle.Session.add_job s (point2 4 4);
  Alcotest.(check (float 1e-12))
    "first query" 1.2
    (Oracle.Session.omega_star s);
  Oracle.Session.remove_job s (point2 4 4);
  let fc0 = Metrics.count m_fc and pr0 = Metrics.count m_probes in
  let v = Oracle.Session.omega_star s in
  let fc = Metrics.count m_fc - fc0 and pr = Metrics.count m_probes - pr0 in
  Alcotest.(check (float 1e-12)) "ω* after the removal" 1.2 v;
  Alcotest.(check bool) "equal to the one-shot oracle" true
    (Float.equal v (Oracle.omega_star (Oracle.Session.demand s)));
  Alcotest.(check int) "no probe" 0 pr;
  Alcotest.(check int) "one feasibility check per bracket"
    (int_of_float (Float.floor v))
    fc

(* The stream-churn shape (6×6 box, 48–64 live unit jobs, an add or a
   remove then a query per event) held to an allocation budget once warm:
   the drains, cut scans and sweeps allocate nothing, so what is left is
   the session's demand map and bracket scan. *)
let test_event_allocation () =
  let side = 6 and max_live = 64 and min_live = 48 in
  let rng = Rng.create 5 in
  let s = Oracle.Session.create (Demand_map.empty 2) in
  let live = Array.make max_live [||] and n = ref 0 in
  let event () =
    if !n >= max_live || (!n > min_live && Rng.int rng 2 = 0) then begin
      let k = Rng.int rng !n in
      let p = live.(k) in
      live.(k) <- live.(!n - 1);
      decr n;
      Oracle.Session.remove_job s p
    end
    else begin
      let p = point2 (Rng.int rng side) (Rng.int rng side) in
      live.(!n) <- p;
      incr n;
      Oracle.Session.add_job s p
    end;
    ignore (Oracle.Session.omega_star s)
  in
  for _ = 1 to 2_000 do
    event ()
  done;
  let events = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    event ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event (at most 600)" words)
    true (words <= 600.0)

let run_trace ~seed ~events ~side ~witness_every =
  let rng = Rng.create seed in
  let s = Oracle.Session.create (Demand_map.empty 2) in
  let live = ref [] and n_live = ref 0 in
  let ok = ref true in
  for e = 1 to events do
    if !n_live > 0 && Rng.int rng 2 = 0 then begin
      let k = Rng.int rng !n_live in
      let p = List.nth !live k in
      Oracle.Session.remove_job s p;
      live := List.filteri (fun i _ -> i <> k) !live;
      decr n_live
    end
    else begin
      let p = point2 (Rng.int rng side) (Rng.int rng side) in
      Oracle.Session.add_job s p;
      live := p :: !live;
      incr n_live
    end;
    let fc0 = Metrics.count m_fc in
    let inc = Oracle.Session.omega_star s in
    let fc = Metrics.count m_fc - fc0 in
    let scratch = Oracle.omega_star (Oracle.Session.demand s) in
    if not (Float.equal inc scratch) then begin
      ok := false;
      QCheck.Test.fail_reportf
        "event %d (seed %d): incremental %.17g <> from-scratch %.17g" e seed
        inc scratch
    end;
    (* one unsolved feasibility check per solved bracket (1 .. ⌊ω*⌋),
       nothing more *)
    let brackets = int_of_float (Float.floor inc) in
    if !n_live > 0 && fc > brackets then begin
      ok := false;
      QCheck.Test.fail_reportf
        "event %d (seed %d): %d feasibility checks for %d brackets" e seed fc
        brackets
    end;
    if e mod witness_every = 0 && !n_live > 0 then begin
      let dm = Oracle.Session.demand s in
      match Oracle.witness dm with
      | None ->
          ok := false;
          QCheck.Test.fail_reportf "event %d (seed %d): no witness" e seed
      | Some (pts, w) ->
          List.iter
            (fun p ->
              if Demand_map.value dm p <= 0 then begin
                ok := false;
                QCheck.Test.fail_reportf
                  "event %d (seed %d): witness point outside live support" e
                  seed
              end)
            pts;
          if Float.abs (w -. inc) > 1e-4 then begin
            ok := false;
            QCheck.Test.fail_reportf
              "event %d (seed %d): witness ω_T %.17g far from ω* %.17g" e seed
              w inc
          end
    end
  done;
  !ok

let prop_trace_bit_identical =
  QCheck.Test.make ~name:"random 10^3-event trace: session ≡ from-scratch"
    ~count:3
    QCheck.(int_range 0 9999)
    (fun seed -> run_trace ~seed ~events:1000 ~side:4 ~witness_every:127)

(* A denser board exercises multi-bracket scans and deep removals. *)
let test_dense_trace () =
  Alcotest.(check bool) "dense trace" true
    (run_trace ~seed:42 ~events:400 ~side:2 ~witness_every:61)

let test_session_metrics () =
  let ev = Metrics.counter "oracle.session_events" in
  let q = Metrics.counter "oracle.session_queries" in
  let ev0 = Metrics.count ev and q0 = Metrics.count q in
  let s = Oracle.Session.create (Demand_map.empty 2) in
  Oracle.Session.add_job s (point2 0 0);
  Oracle.Session.add_job s (point2 0 0);
  ignore (Oracle.Session.omega_star s);
  ignore (Oracle.Session.omega_star s);
  (* cached *)
  Oracle.Session.remove_job s (point2 0 0);
  ignore (Oracle.Session.omega_star s);
  Alcotest.(check int) "events counted" 3 (Metrics.count ev - ev0);
  Alcotest.(check int) "queries = dirty recomputes" 2 (Metrics.count q - q0)

let suite =
  [
    Alcotest.test_case "golden trace" `Quick test_golden_trace;
    Alcotest.test_case "remove absent raises" `Quick test_remove_absent_raises;
    Alcotest.test_case "delta probe bound" `Quick test_delta_probe_bound;
    Alcotest.test_case "certificate skips probes" `Quick
      test_certificate_skips_probes;
    Alcotest.test_case "event allocation" `Quick test_event_allocation;
    QCheck_alcotest.to_alcotest prop_trace_bit_identical;
    Alcotest.test_case "dense trace" `Slow test_dense_trace;
    Alcotest.test_case "session metrics" `Quick test_session_metrics;
  ]
