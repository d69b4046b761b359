(* An independent auditor for [Online]'s Chapter 3 protocol.  It replays
   a run's event stream, in emission order, against the run's topology,
   config, arrivals and outcome, keeping its own copy of every vehicle's
   role, position and energy, and checks:

   - each job is served exactly once, or reported failed, never both:
     by its pair's active vehicle (alive, not retired), with the walk the
     replayed position gives, and no further than across the pair
     (§3.2.2; 1 on the grid);
   - each vehicle's energy, charged the job plus its walk and each
     relocation's distance, never exceeds capacity unless the outcome
     reports that overdraw as a failure, and the replayed peak, mean and
     consumer count equal the outcome's bit for bit;
   - Dijkstra–Scholten (§3.1, Algorithm 2): a computation starts only
     for an uncovered pair, and each [Computation_started] ends in
     [Candidate_found] by its initiator and then a [Replacement], in
     [Search_starved], or in [Search_abandoned], before the pair's next
     computation; the replacement vehicle is alive and idle and lands on
     the pair's anchor;
   - a vehicle dies at most once, only as the fault plan says, and never
     acts after it.

   The auditor reads no [Online] state: it knows the protocol only
   through its events. *)

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* Vehicle roles and per-pair search phases. *)
let idle = 0
let active = 1
let retired = 2
let dead = 3
let no_search = 0
let searching = 1
let candidate = 2

let bits = Int64.bits_of_float

let check (cfg : Online.config) (topo : Online.topology) ~jobs (o : Online.outcome)
    events =
  let n = topo.Online.cells and n_pairs = Array.length topo.Online.pair_anchor in
  let role = Array.make n idle and pos = Array.init n Fun.id in
  let energy = Array.make n cfg.Online.capacity in
  let pair_of_cell = Array.make n (-1) and serves = Array.make n (-1) in
  let pair_active = Array.make n_pairs (-1) in
  for p = 0 to n_pairs - 1 do
    let a = topo.Online.pair_anchor.(p) and b = topo.Online.pair_partner.(p) in
    role.(a) <- active;
    serves.(a) <- p;
    pair_active.(p) <- a;
    pair_of_cell.(a) <- p;
    if b >= 0 then pair_of_cell.(b) <- p
  done;
  let search = Array.make n_pairs no_search and searcher = Array.make n_pairs (-1) in
  let cell_of_job = Hashtbl.create (Array.length jobs) in
  Array.iter (fun (k, c) -> Hashtbl.replace cell_of_job k c) jobs;
  let served = Hashtbl.create (Array.length jobs) in
  let replacements = ref 0 and starved = ref 0 in
  let overdraws = ref [] in
  let plan = cfg.Online.faults in
  let may_die v =
    List.exists (fun (_, id) -> id = v) plan.Online.deaths
    || List.exists (fun (id, _) -> id = v) plan.Online.longevity
  in
  let alive what v = if role.(v) = dead then fail "%s: vehicle %d is dead" what v in
  let charge what v cost =
    energy.(v) <- energy.(v) -. float_of_int cost;
    if energy.(v) < -1e-9 then
      fail "%s: vehicle %d has used %g of its capacity %g" what v
        (cfg.Online.capacity -. energy.(v))
        cfg.Online.capacity
  in
  (* A relocation may overdraw, but the run must report it as a failure
     of the job count served so far, at the vehicle's old position. *)
  let relocate v a =
    energy.(v) <- energy.(v) -. float_of_int (topo.Online.dist pos.(v) a);
    if energy.(v) < -1e-9 then
      overdraws := (Hashtbl.length served, topo.Online.point pos.(v)) :: !overdraws;
    pos.(v) <- a
  in
  let step = function
    | Online.Job_served { job; position; vehicle = v; walk } ->
        let what = Printf.sprintf "job %d" job in
        let cell =
          match Hashtbl.find_opt cell_of_job job with
          | Some c -> c
          | None -> fail "%s: not an arrival of this run" what
        in
        if Hashtbl.mem served job then fail "%s: served twice" what;
        Hashtbl.replace served job ();
        if not (Point.equal position (topo.Online.point cell)) then
          fail "%s: served at %s, arrived at %s" what (Point.to_string position)
            (Point.to_string (topo.Online.point cell));
        alive what v;
        let p = pair_of_cell.(cell) in
        if pair_active.(p) <> v then
          fail "%s: served by vehicle %d, but pair %d's active vehicle is %d" what v
            p pair_active.(p);
        let d = topo.Online.dist pos.(v) cell in
        if d <> walk then fail "%s: walk reported %d, replayed %d" what walk d;
        if d > topo.Online.pair_walk.(p) then
          fail "%s: walk %d is longer than pair %d's %d" what d p
            topo.Online.pair_walk.(p);
        charge what v (d + 1);
        pos.(v) <- cell
    | Online.Vehicle_retired { vehicle = v; pair = p } ->
        let what = Printf.sprintf "retirement of vehicle %d" v in
        alive what v;
        if pair_active.(p) <> v then fail "%s: it does not serve pair %d" what p;
        let reserve = float_of_int (topo.Online.pair_walk.(p) + 1) in
        if energy.(v) >= reserve then
          fail "%s: %g left covers the reserve %g" what energy.(v) reserve;
        role.(v) <- retired;
        pair_active.(p) <- -1
    | Online.Vehicle_died { vehicle = v } ->
        if role.(v) = dead then fail "vehicle %d dies twice" v;
        if not (may_die v) then fail "vehicle %d dies outside the fault plan" v;
        if role.(v) = active && pair_active.(serves.(v)) = v then
          pair_active.(serves.(v)) <- -1;
        role.(v) <- dead
    | Online.Computation_started { initiator = v; pair = p } ->
        let what = Printf.sprintf "pair %d: computation by vehicle %d" p v in
        alive what v;
        if search.(p) <> no_search then
          fail "%s starts while vehicle %d's is open" what searcher.(p);
        if pair_active.(p) >= 0 then
          fail "%s starts while vehicle %d serves the pair" what pair_active.(p);
        search.(p) <- searching;
        searcher.(p) <- v
    | Online.Candidate_found { initiator = v; pair = p } ->
        let what = Printf.sprintf "pair %d: candidate found by vehicle %d" p v in
        alive what v;
        if search.(p) <> searching || searcher.(p) <> v then
          fail "%s outside its computation" what;
        search.(p) <- candidate
    | Online.Replacement { vehicle = v; pair = p; dest } ->
        let what = Printf.sprintf "pair %d: replacement by vehicle %d" p v in
        alive what v;
        if search.(p) <> candidate then fail "%s without a candidate found" what;
        if role.(v) <> idle then fail "%s, which is not idle" what;
        let a = topo.Online.pair_anchor.(p) in
        if not (Point.equal dest (topo.Online.point a)) then
          fail "%s lands on %s, not the anchor %s" what (Point.to_string dest)
            (Point.to_string (topo.Online.point a));
        relocate v a;
        role.(v) <- active;
        serves.(v) <- p;
        pair_active.(p) <- v;
        search.(p) <- no_search;
        incr replacements
    | Online.Search_starved { pair = p } ->
        search.(p) <- no_search;
        incr starved
    | Online.Search_abandoned { pair = p } ->
        if search.(p) = no_search then fail "pair %d: no open search to abandon" p;
        search.(p) <- no_search
  in
  match
    List.iter step events;
    let failed = Hashtbl.create 16 in
    let overdraws = ref (List.rev !overdraws) in
    List.iter
      (fun (f : Online.failure) ->
        let k = f.Online.job in
        match (String.equal f.Online.reason "energy went negative", !overdraws) with
        | true, (k', p) :: rest when k = k' && Point.equal p f.Online.position ->
            overdraws := rest
        | true, _ -> fail "an overdraw at job count %d that the replay does not make" k
        | false, _ -> (
            match Hashtbl.find_opt cell_of_job k with
            | None -> fail "failure of job %d, not an arrival of this run" k
            | Some c ->
            if Hashtbl.mem served k then fail "job %d both served and failed" k;
            if Hashtbl.mem failed k then fail "job %d failed twice" k;
            if not (Point.equal f.Online.position (topo.Online.point c)) then
              fail "job %d failed at %s, arrived at %s" k
                (Point.to_string f.Online.position)
                (Point.to_string (topo.Online.point c));
            Hashtbl.replace failed k ()))
      o.Online.failures;
    (match !overdraws with
    | (k, _) :: _ -> fail "an overdraw at job count %d that the outcome does not report" k
    | [] -> ());
    Array.iter
      (fun (k, _) ->
        if not (Hashtbl.mem served k || Hashtbl.mem failed k) then
          fail "job %d neither served nor failed" k)
      jobs;
    let count what replayed reported =
      if replayed <> reported then
        fail "%s: replayed %d, outcome %d" what replayed reported
    in
    count "served" (Hashtbl.length served) o.Online.served;
    count "replacements" !replacements o.Online.replacements;
    count "starved searches" !starved o.Online.starved_searches;
    count "vehicles" n o.Online.vehicles;
    let consumers = ref 0 and used_sum = ref 0.0 and used_max = ref 0.0 in
    for v = 0 to n - 1 do
      let used = cfg.Online.capacity -. energy.(v) in
      if used > !used_max then used_max := used;
      if used > 0.0 then begin
        incr consumers;
        used_sum := !used_sum +. used
      end
    done;
    count "energy consumers" !consumers o.Online.energy_consumers;
    let same what replayed reported =
      if not (Int64.equal (bits replayed) (bits reported)) then
        fail "%s: replayed %h, outcome %h" what replayed reported
    in
    same "max_energy_used" (Float.max 0.0 !used_max) o.Online.max_energy_used;
    same "mean_energy_used"
      (if !consumers = 0 then 0.0 else !used_sum /. float_of_int !consumers)
      o.Online.mean_energy_used
  with
  | () -> Ok ()
  | exception Violation m -> Error m

let ok_or_fail name = function
  | Ok () -> ()
  | Error m -> failwith (Printf.sprintf "audit of %s: %s" name m)

(* A run's inputs and event stream, for checking as recorded or mutated. *)
type recorded = {
  cfg : Online.config;
  topo : Online.topology;
  jobs : (int * int) array;
  outcome : Online.outcome;
  events : Online.event list;
}

let recheck r = check r.cfg r.topo ~jobs:r.jobs r.outcome r.events

(* [Online.run] with every event recorded.  Its topology is the grid of
   the window that tiles the jobs' bounding box, as [Online.run] builds
   it. *)
let record ?(observer = ignore) cfg w =
  let events = ref [] in
  let outcome =
    Online.run
      ~observer:(fun e ->
        observer e;
        events := e :: !events)
      cfg w
  in
  let window =
    match Box.hull (Array.to_list w.Workload.jobs) with
    | Some hull -> Box.tiled hull ~side:cfg.Online.side
    | None -> invalid_arg "Audit.record: a workload without jobs"
  in
  {
    cfg;
    topo = Online.grid_topology cfg window;
    jobs = Array.mapi (fun i p -> (i + 1, Box.index window p)) w.Workload.jobs;
    outcome;
    events = List.rev !events;
  }

(* [Online.run], audited: the outcome, or [Failure] naming the first
   violation. *)
let run ?observer cfg w =
  let r = record ?observer cfg w in
  ok_or_fail w.Workload.name (recheck r);
  r.outcome

(* [Online.run_topology], audited. *)
let run_topology cfg topo ~jobs =
  let events = ref [] in
  let o = Online.run_topology ~observer:(fun e -> events := e :: !events) cfg topo ~jobs in
  ok_or_fail "run_topology"
    (check cfg topo ~jobs:(Array.mapi (fun i c -> (i + 1, c)) jobs) o (List.rev !events));
  o

(* [Online.run_fleet] on one worker, every band audited against its own
   topology, config, arrivals and outcome. *)
let run_fleet ~shards cfg w =
  let logs = Hashtbl.create 8 in
  let f =
    Online.run_fleet ~workers:1 ~shards
      ~observer:(fun b e ->
        let k = b.Online.band_index in
        let _, events = Option.value (Hashtbl.find_opt logs k) ~default:(b, []) in
        Hashtbl.replace logs k (b, e :: events))
      cfg w
  in
  Array.iteri
    (fun k o ->
      match Hashtbl.find_opt logs k with
      | None -> if o.Online.served > 0 then failwith "audit: a band without events"
      | Some (b, events) ->
          ok_or_fail
            (Printf.sprintf "band %d" k)
            (check b.Online.band_config b.Online.band_topology
               ~jobs:(Array.map2 (fun i c -> (i, c)) b.Online.band_job_index b.Online.band_jobs)
               o (List.rev events)))
    f.Online.shard_outcomes;
  f
