let m_jobs_served = Metrics.counter "online.jobs_served"
let m_retirements = Metrics.counter "online.retirements"
let m_computations = Metrics.counter "online.computations"
let m_replacements = Metrics.counter "online.replacements"
let m_monitor_timeouts = Metrics.counter "online.monitor_timeouts"
let m_starved_searches = Metrics.counter "online.starved_searches"
let m_heartbeats = Metrics.counter "online.heartbeats"
let m_retries = Metrics.counter "online.retries"
let m_retry_exhausted = Metrics.counter "online.retry_exhausted"
let m_bytes_per_vehicle = Metrics.gauge "des.bytes_per_vehicle"

type fault_plan = {
  silent_initiators : int list;
  deaths : (int * int) list;
  longevity : (int * float) list;
  outages : (int * int * float) list;
}

let no_faults =
  { silent_initiators = []; deaths = []; longevity = []; outages = [] }

type config = {
  capacity : float;
  side : int;
  comm_radius : int;
  seed : int;
  faults : fault_plan;
  chaos : Des.faults;
  partitions : (int * int) list;
  retries : bool;
  quiesce_budget : int;
}

(* Shape checks that need no fleet size; id ranges are checked in [build]
   once the window (and hence the fleet) is known. *)
let validate_plan plan =
  List.iter
    (fun (k, id) ->
      if k < 0 then
        invalid_arg
          (Printf.sprintf "Online: death of vehicle %d at negative job index %d"
             id k))
    plan.deaths;
  List.iter
    (fun (id, p) ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg
          (Printf.sprintf
             "Online: longevity fraction %g of vehicle %d outside [0,1]" p id))
    plan.longevity;
  List.iter
    (fun (k, id, d) ->
      if k < 0 then
        invalid_arg
          (Printf.sprintf "Online: outage of vehicle %d at negative job index %d"
             id k);
      if not (d > 0.0 && Float.is_finite d) then
        invalid_arg
          (Printf.sprintf
             "Online: outage of vehicle %d needs a positive finite restart delay"
             id))
    plan.outages

let config ?(comm_radius = 2) ?(seed = 0) ?(faults = no_faults)
    ?(chaos = Des.reliable) ?(partitions = []) ?(retries = true)
    ?(quiesce_budget = 100_000) ~capacity ~side () =
  if capacity <= 0.0 then invalid_arg "Online.config: capacity must be positive";
  if side <= 0 then invalid_arg "Online.config: side must be positive";
  if comm_radius <= 0 then invalid_arg "Online.config: comm_radius must be positive";
  if quiesce_budget <= 0 then
    invalid_arg "Online.config: quiesce_budget must be positive";
  validate_plan faults;
  { capacity; side; comm_radius; seed; faults; chaos; partitions; retries;
    quiesce_budget }

type failure = { job : int; position : Point.t; reason : string }

type outcome = {
  served : int;
  failures : failure list;
  max_energy_used : float;
  mean_energy_used : float;
  energy_consumers : int;
  messages : int;
  replacements : int;
  computations : int;
  starved_searches : int;
  vehicles : int;
  vehicles_still_serviceable : int;
  drops : int;
  dups : int;
  retries_sent : int;
  livelocks : int;
  trace_digest : int;
}

let succeeded o = match o.failures with [] -> true | _ :: _ -> false

(* --- protocol messages --- *)

(* The algorithmic payload (§3.2.3.1 plus the Move of phase II) travels
   inside a reliable-delivery envelope: every [Payload] carries a
   globally unique [msg_id], the receiver acknowledges and deduplicates
   by it, and the sender retransmits on a backoff timer until acked (or
   gives up).  A retransmission therefore re-delivers the same logical
   message at most once, which is what keeps the Dijkstra–Scholten
   [num]/[par] bookkeeping exact under drops and duplicates.

   [Heartbeat]/[Deadline] realize §3.2.5's monitoring ring with real
   messages: the active vehicle of a pair beats to its monitor, and a
   per-pair deadline chain checks on it — see docs/ROBUSTNESS.md.  While
   the pair's active vehicle is alive the chain is kept as numbers; an
   uncovered pair's runs as a weak self-timer on the pair's anchor,
   which anchors no other pair, so a [Deadline] names no pair and
   allocates nothing. *)

type body =
  | Query of { init : int * int }
  | Reply of { init : int * int; flag : bool }
  | Move of { init : int * int; dest : int; pair : int }

type msg =
  | Payload of { msg_id : int; body : body }
  | Ack of { msg_id : int }
  | Heartbeat of { pair : int }
  | Deadline
  | Retry of { msg_id : int }

type event =
  | Job_served of { job : int; position : Point.t; vehicle : int; walk : int }
  | Vehicle_retired of { vehicle : int; pair : int }
  | Vehicle_died of { vehicle : int }
  | Computation_started of { initiator : int; pair : int }
  | Candidate_found of { initiator : int; pair : int }
  | Replacement of { vehicle : int; pair : int; dest : Point.t }
  | Search_starved of { pair : int }
  | Search_abandoned of { pair : int }

(* --- topology --- *)

type topology = {
  cells : int;
  nbr_off : int array;
  nbr_ids : int array;
  ring_off : int array;
  pair_ring : int array;
  pair_anchor : int array;
  pair_partner : int array;
  pair_walk : int array;
  dist : int -> int -> int;
  point : int -> Point.t;
}

(* --- vehicle state (§3.2.1), struct-of-arrays --- *)

(* Per-vehicle protocol state lives in parallel flat arrays indexed by
   vehicle id (docs/SCALE.md): one byte per enum, one word per scalar, no
   per-vehicle boxed record, so a 10^6-vehicle fleet costs a few hundred
   megabytes and the hot path never allocates per-vehicle state.  [-1]
   encodes the paper's NULL throughout. *)

let st_idle = 0
let st_active = 1
let st_done = 2
let st_dead = 3
let tr_waiting = 0
let tr_searching = 1
let tr_initiator = 2

(* A pair's deadline chain is stopped (a hopeless pair after its last
   fire), real (a [Deadline] is pending in [Des]) or virtual (the pair is
   healthy and no event is pending: its next fire is at [w_due]). *)
let chain_stopped = 0
let chain_real = 1
let chain_virtual = 2

(* In-flight reliable message awaiting its ack. *)
type pending = { p_src : int; p_dst : int; p_body : body; mutable attempts : int }

type world = {
  cfg : config;
  observer : event -> unit;
  topo : topology;
  (* vehicles, one per cell *)
  veh_pos : int array; (* cell ids *)
  veh_energy : float array;
  veh_working : Bytes.t; (* st_* codes *)
  veh_transfer : Bytes.t; (* tr_* codes *)
  veh_pair : int array;
  (* Dijkstra–Scholten locals (§3.2.3.2) *)
  veh_par : int array;
  veh_child : int array;
  veh_num : int array;
  veh_init_id : int array; (* -1 = the paper's NULL identifier *)
  veh_init_seq : int array;
  (* pairs; their rings, anchors and walks are in [topo] *)
  pair_active : int array; (* vehicle id, or -1 while a replacement is pending *)
  anchor_pair : int array; (* vehicle -> pair anchored at it, or -1 *)
  cell_pair : int array; (* cell (= vehicle id) -> owning pair *)
  (* per-pair monitoring-ring state (§3.2.5); the anchor hosts the pair's
     deadline self-timer (timers are fault-exempt, so any fixed vehicle
     works) *)
  w_beats : int array; (* heartbeats received for this pair *)
  w_beats_at_arm : int array;
  w_armed : Bytes.t; (* chain_* codes *)
  w_interval : float array;
  w_due : float array; (* a virtual chain's next fire *)
  w_live : (int, int) Hashtbl.t; (* pair -> seq of its in-flight search *)
  w_stalls : int array; (* deadline fires while a search was in flight *)
  w_starves : int array; (* consecutive starved searches *)
  w_hopeless : Bytes.t; (* stop searching; the pair stays uncovered *)
  (* Pair-coverage accounting: [covered.(p)] caches the quiescence
     predicate (hopeless, or active and alive) and [uncovered] counts the
     zeros, so [protocol_idle] — polled once per dispatched event — is
     O(1) instead of a fleet-wide scan. *)
  covered : Bytes.t;
  mutable uncovered : int;
  des : msg Des.t;
  silent : Bytes.t;
  break_at : float array; (* used-energy threshold per vehicle (Ch. 4) *)
  phase2 : (int, int) Hashtbl.t; (* pending initiator id -> pair id *)
  rel_pending : (int, pending) Hashtbl.t;
  mutable rel_seen : Bytes.t; (* dedup bitset over dense msg_ids *)
  mutable next_msg_id : int;
  mutable seq : int;
  mutable served : int;
  mutable failures : failure list;
  mutable computations : int;
  mutable replacements : int;
  mutable starved : int;
  mutable violations : int;
  mutable retries_count : int;
  mutable livelocks : int;
  mutable livelocked : bool;
}

(* Protocol constants: the heartbeat deadline of §3.2.5, the idle backoff
   cap for deadline re-arming, and the retry schedule of the reliable
   layer (at most [max_attempts] transmissions, the k-th retry timer set
   for base * 2^k).  Each of a vehicle's timers fires at its own time
   ([Des] keeps no FIFO order on a self-channel), so on a pair's anchor
   a retry never waits for the pair's deadline, up to
   [max_deadline_interval] away. *)
let heartbeat_timeout = 50.0
let max_deadline_interval = 1600.0
let retry_delay = 4.0
let max_attempts = 6
let stall_limit = 3
let starve_limit = 3

let working w v = Bytes.get_uint8 w.veh_working v
let set_working w v s = Bytes.set_uint8 w.veh_working v s
let transfer w v = Bytes.get_uint8 w.veh_transfer v
let set_transfer w v s = Bytes.set_uint8 w.veh_transfer v s
let alive w v = working w v <> st_dead
let hopeless w pid = Bytes.get_uint8 w.w_hopeless pid = 1
let searching w pid = Hashtbl.mem w.w_live pid
let armed w pid = Bytes.get_uint8 w.w_armed pid <> chain_stopped

(* Whether [seq] is the pair's in-flight search: a [Move] acts only for it. *)
let live w pid seq =
  match Hashtbl.find_opt w.w_live pid with Some s -> s = seq | None -> false

let active_alive w pid =
  let a = w.pair_active.(pid) in
  a >= 0 && alive w a

let pair_covered w pid = hopeless w pid || active_alive w pid
let healthy w pid = (not (hopeless w pid)) && active_alive w pid

(* A healthy pair's deadline re-arms at the base timeout after heartbeats
   since it was armed; a quiet pair backs off exponentially up to
   [max_deadline_interval], yet a later death is still caught. *)
let rearm_delay w pid =
  if w.w_beats.(pid) > w.w_beats_at_arm.(pid) then heartbeat_timeout
  else Float.min max_deadline_interval (2.0 *. w.w_interval.(pid))

let send_deadline w pid ~delay =
  Bytes.set_uint8 w.w_armed pid chain_real;
  let anchor = w.topo.pair_anchor.(pid) in
  Des.send_after ~weak:true w.des ~delay ~src:anchor ~dst:anchor Deadline

(* Apply a virtual chain's fires due before now, as a healthy pair's
   [Deadline] would: a quiet chain doubles up to [max_deadline_interval]
   and then steps by it.  Called before a heartbeat is counted and before
   the chain turns real. *)
let catch_up w pid =
  if Bytes.get_uint8 w.w_armed pid = chain_virtual then begin
    let now = Des.now w.des in
    while w.w_due.(pid) < now do
      let delay = rearm_delay w pid in
      w.w_beats_at_arm.(pid) <- w.w_beats.(pid);
      w.w_interval.(pid) <- delay;
      w.w_due.(pid) <- w.w_due.(pid) +. delay
    done
  end

(* Re-derive one pair's coverage bit after any mutation of its active
   vehicle, its hopeless flag, or the active vehicle's liveness.  A pair
   that stops being healthy gets its chain's next fire as a real
   [Deadline]. *)
let sync_pair w pid =
  let ok = pair_covered w pid in
  let cur = Bytes.get_uint8 w.covered pid = 1 in
  if ok && not cur then begin
    Bytes.set_uint8 w.covered pid 1;
    w.uncovered <- w.uncovered - 1
  end
  else if (not ok) && cur then begin
    Bytes.set_uint8 w.covered pid 0;
    w.uncovered <- w.uncovered + 1
  end;
  if Bytes.get_uint8 w.w_armed pid = chain_virtual && not (healthy w pid) then begin
    catch_up w pid;
    send_deadline w pid ~delay:(w.w_due.(pid) -. Des.now w.des)
  end

(* Neighbor scans preserve the CSR fill order, which is the Query fan-out
   order and hence part of the deterministic trace. *)
let count_alive_neighbors w v =
  let t = w.topo in
  let c = ref 0 in
  for i = t.nbr_off.(v) to t.nbr_off.(v + 1) - 1 do
    if alive w t.nbr_ids.(i) then incr c
  done;
  !c

let iter_alive_neighbors w v f =
  let t = w.topo in
  for i = t.nbr_off.(v) to t.nbr_off.(v + 1) - 1 do
    if alive w t.nbr_ids.(i) then f t.nbr_ids.(i)
  done

(* What an active vehicle keeps back for one more job of its pair: the
   walk across the pair plus the job itself. *)
let reserve w v = float_of_int (w.topo.pair_walk.(w.veh_pair.(v)) + 1)

let spend w v cost =
  w.veh_energy.(v) <- w.veh_energy.(v) -. cost;
  if w.veh_energy.(v) < -1e-9 then begin
    w.violations <- w.violations + 1;
    w.failures <-
      {
        job = w.served;
        position = w.topo.point w.veh_pos.(v);
        reason = "energy went negative";
      }
      :: w.failures
  end

(* A vehicle whose longevity fraction is exhausted breaks down right after
   the operation that crossed the threshold (Chapter 4 semantics).  No
   notification is sent: its pair's deadline notices the missing
   heartbeats and drives the replacement. *)
let maybe_break w v =
  if alive w v && w.cfg.capacity -. w.veh_energy.(v) >= w.break_at.(v) -. 1e-9
  then begin
    let was_active = working w v = st_active in
    set_working w v st_dead;
    w.observer (Vehicle_died { vehicle = v });
    if was_active then begin
      let pid = w.veh_pair.(v) in
      w.pair_active.(pid) <- -1;
      sync_pair w pid
    end
  end

(* --- world construction --- *)

let jobs_box_of workload = Box.hull (Array.to_list workload.Workload.jobs)

let fleet_size cfg workload =
  match jobs_box_of workload with
  | None -> 0
  | Some jobs_box ->
      Box.volume (Box.tiled jobs_box ~side:cfg.side)

let validate_ids ~n plan partitions =
  let check what id =
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf "Online: %s names vehicle %d outside the fleet [0,%d)"
           what id n)
  in
  List.iter (check "silent_initiators") plan.silent_initiators;
  List.iter (fun (_, id) -> check "deaths" id) plan.deaths;
  List.iter (fun (id, _) -> check "longevity" id) plan.longevity;
  List.iter (fun (_, id, _) -> check "outages" id) plan.outages;
  List.iter
    (fun (a, b) ->
      check "partitions" a;
      check "partitions" b)
    partitions

(* The grid producer.  The window is tiled by whole [cfg.side]-cubes (both
   callers pass one: [Box.tiled] and its tile-column bands), so every cube
   is a translate of the origin cube and has the same pairs and links.
   The origin cube's pattern is computed once, each cell as its offset in
   the window's row-major index: [Snake.pairing]'s pairs (walk 1, a single
   cell too, so the reserve is 2) and, per cell in [Box.iter] order, the
   cells at most [cfg.comm_radius] away.  Each cube, in
   [Box.partition_cubes]'s order, is a ring; stamping the pattern at its
   base index allocates nothing per cell. *)
let grid_topology cfg window =
  let s = cfg.side and dim = Box.dim window in
  for i = 0 to dim - 1 do
    if Box.side window i mod s <> 0 then
      invalid_arg "Online.grid_topology: window not tiled by whole cubes"
  done;
  let n = Box.volume window in
  let stride = Array.make dim 1 in
  for i = dim - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * Box.side window (i + 1)
  done;
  let offset p =
    let o = ref 0 in
    Array.iteri (fun i x -> o := !o + (x * stride.(i))) p;
    !o
  in
  let cube = Box.cube_at_origin ~dim ~side:s in
  let cells = Array.of_list (Box.points cube) in
  let cell_off = Array.map offset cells in
  let { Snake.pairs; unpaired } = Snake.pairing cube in
  let pattern =
    Array.append
      (Array.map (fun (a, b) -> (offset a, offset b)) pairs)
      (Option.fold ~none:[||] ~some:(fun a -> [| (offset a, -1) |]) unpaired)
  in
  let links =
    Array.map
      (fun home ->
        Array.of_list
          (List.filter_map
             (fun p ->
               let d = Point.l1_dist p home in
               if d > 0 && d <= cfg.comm_radius then Some (offset p) else None)
             (Array.to_list cells)))
      cells
  in
  (* Cube [c]'s base index: its tile coordinates, last axis fastest. *)
  let tiles = Array.init dim (fun i -> Box.side window i / s) in
  let base c =
    let b = ref 0 and c = ref c in
    for i = dim - 1 downto 0 do
      b := !b + (!c mod tiles.(i) * s * stride.(i));
      c := !c / tiles.(i)
    done;
    !b
  in
  let n_cubes = n / Array.length cells and per_cube = Array.length pattern in
  let n_pairs = n_cubes * per_cube in
  let ring_off = Array.init (n_cubes + 1) (fun c -> c * per_cube) in
  let pair_ring = Array.init n_pairs (fun pid -> pid / per_cube) in
  let pair_anchor = Array.make n_pairs 0 and pair_partner = Array.make n_pairs 0 in
  (* CSR: count pass, prefix sum, fill pass. *)
  let nbr_off = Array.make (n + 1) 0 in
  for c = 0 to n_cubes - 1 do
    let b = base c in
    for j = 0 to per_cube - 1 do
      let anchor, partner = pattern.(j) in
      pair_anchor.((c * per_cube) + j) <- b + anchor;
      pair_partner.((c * per_cube) + j) <- (if partner < 0 then -1 else b + partner)
    done;
    for h = 0 to Array.length cells - 1 do
      nbr_off.(b + cell_off.(h) + 1) <- Array.length links.(h)
    done
  done;
  for i = 1 to n do
    nbr_off.(i) <- nbr_off.(i) + nbr_off.(i - 1)
  done;
  let nbr_ids = Array.make nbr_off.(n) 0 in
  for c = 0 to n_cubes - 1 do
    let b = base c in
    for h = 0 to Array.length cells - 1 do
      let at = nbr_off.(b + cell_off.(h)) and l = links.(h) in
      for j = 0 to Array.length l - 1 do
        nbr_ids.(at + j) <- b + l.(j)
      done
    done
  done;
  let point = Box.point_of_index window in
  {
    cells = n;
    nbr_off;
    nbr_ids;
    ring_off;
    pair_ring;
    pair_anchor;
    pair_partner;
    pair_walk = Array.make n_pairs 1;
    dist = (fun a b -> Point.l1_dist (point a) (point b));
    point;
  }

let build ?(observer = fun (_ : event) -> ()) cfg topo =
  let n = topo.cells in
  validate_plan cfg.faults;
  validate_ids ~n cfg.faults cfg.partitions;
  let n_pairs = Array.length topo.pair_anchor in
  (* Initial roles: the anchor cell of each pair hosts the active vehicle,
     its partner stays idle (the paper's black/white split). *)
  let veh_working = Bytes.make n (Char.chr st_idle) in
  let veh_pair = Array.make n (-1) in
  let pair_active = Array.make n_pairs (-1) in
  let anchor_pair = Array.make n (-1) in
  for pid = 0 to n_pairs - 1 do
    let a = topo.pair_anchor.(pid) in
    pair_active.(pid) <- a;
    anchor_pair.(a) <- pid;
    Bytes.set_uint8 veh_working a st_active;
    veh_pair.(a) <- pid;
    let partner = topo.pair_partner.(pid) in
    if partner >= 0 then veh_pair.(partner) <- pid
  done;
  let silent = Bytes.make n '\000' in
  List.iter
    (fun id -> Bytes.set_uint8 silent id 1)
    cfg.faults.silent_initiators;
  let break_at = Array.make n infinity in
  List.iter
    (fun (id, p) -> break_at.(id) <- p *. cfg.capacity)
    cfg.faults.longevity;
  let des = Des.create ~rng:(Rng.create cfg.seed) ~faults:cfg.chaos () in
  List.iter (fun (a, b) -> Des.partition des a b) cfg.partitions;
  {
    cfg;
    observer;
    topo;
    veh_pos = Array.init n Fun.id;
    veh_energy = Array.make n cfg.capacity;
    veh_working;
    veh_transfer = Bytes.make n (Char.chr tr_waiting);
    veh_pair;
    veh_par = Array.make n (-1);
    veh_child = Array.make n (-1);
    veh_num = Array.make n 0;
    veh_init_id = Array.make n (-1);
    veh_init_seq = Array.make n (-1);
    pair_active;
    anchor_pair;
    cell_pair = Array.copy veh_pair;
    w_beats = Array.make n_pairs 0;
    w_beats_at_arm = Array.make n_pairs 0;
    (* Every pair starts healthy, its chain virtual and due at the base
       timeout, so even a death before the first job is detected. *)
    w_armed = Bytes.make n_pairs (Char.chr chain_virtual);
    w_interval = Array.make n_pairs heartbeat_timeout;
    w_due = Array.make n_pairs heartbeat_timeout;
    w_live = Hashtbl.create 8;
    w_stalls = Array.make n_pairs 0;
    w_starves = Array.make n_pairs 0;
    w_hopeless = Bytes.make n_pairs '\000';
    covered = Bytes.make n_pairs '\001'; (* every pair starts covered *)
    uncovered = 0;
    des;
    silent;
    break_at;
    phase2 = Hashtbl.create 8;
    rel_pending = Hashtbl.create 32;
    rel_seen = Bytes.make 64 '\000';
    next_msg_id = 0;
    seq = 0;
    served = 0;
    failures = [];
    computations = 0;
    replacements = 0;
    starved = 0;
    violations = 0;
    retries_count = 0;
    livelocks = 0;
    livelocked = false;
  }

(* --- reliable send layer --- *)

let send_reliable w ~src ~dst body =
  let msg_id = w.next_msg_id in
  w.next_msg_id <- w.next_msg_id + 1;
  Des.send w.des ~src ~dst (Payload { msg_id; body });
  if w.cfg.retries then begin
    Hashtbl.replace w.rel_pending msg_id
      { p_src = src; p_dst = dst; p_body = body; attempts = 1 };
    Des.send_after ~weak:true w.des ~delay:retry_delay ~src ~dst:src
      (Retry { msg_id })
  end

(* Receiver-side dedup over dense message ids: a growable bitset instead
   of a hashtable, one bit per id ever sent. *)
let seen_mem w id =
  let byte = id lsr 3 in
  byte < Bytes.length w.rel_seen
  && Bytes.get_uint8 w.rel_seen byte land (1 lsl (id land 7)) <> 0

let seen_add w id =
  let byte = id lsr 3 in
  if byte >= Bytes.length w.rel_seen then begin
    let cap = max (2 * Bytes.length w.rel_seen) (byte + 1) in
    let grown = Bytes.make cap '\000' in
    Bytes.blit w.rel_seen 0 grown 0 (Bytes.length w.rel_seen);
    w.rel_seen <- grown
  end;
  Bytes.set_uint8 w.rel_seen byte
    (Bytes.get_uint8 w.rel_seen byte lor (1 lsl (id land 7)))

(* --- monitoring ring (§3.2.5, scenarios 2 and 3) --- *)

let monitor_of w ~pair_id =
  let ring = w.topo.pair_ring.(pair_id) in
  let first = w.topo.ring_off.(ring) in
  let count = w.topo.ring_off.(ring + 1) - first in
  let start = pair_id - first in
  let rec scan k =
    if k >= count then None
    else begin
      let candidate = w.pair_active.(first + ((start + k) mod count)) in
      if candidate >= 0 && alive w candidate then Some candidate
      else scan (k + 1)
    end
  in
  scan 1

let arm_deadline w ~pair_id ~delay =
  w.w_beats_at_arm.(pair_id) <- w.w_beats.(pair_id);
  w.w_interval.(pair_id) <- delay;
  if healthy w pair_id then begin
    Bytes.set_uint8 w.w_armed pair_id chain_virtual;
    w.w_due.(pair_id) <- Des.now w.des +. delay
  end
  else send_deadline w pair_id ~delay

let send_heartbeat w v =
  if working w v = st_active && w.veh_pair.(v) >= 0 then
    match monitor_of w ~pair_id:w.veh_pair.(v) with
    | None -> ()
    | Some m ->
        Metrics.incr m_heartbeats;
        Des.send ~weak:true w.des ~src:v ~dst:m
          (Heartbeat { pair = w.veh_pair.(v) })

let on_heartbeat w ~pair_id =
  catch_up w pair_id;
  w.w_beats.(pair_id) <- w.w_beats.(pair_id) + 1;
  if (not (armed w pair_id)) && not (hopeless w pair_id) then
    arm_deadline w ~pair_id ~delay:heartbeat_timeout

(* Give up on a pair's in-flight search as lost; the pair's deadline
   starts a fresh one. *)
let abandon_search w ~pair_id =
  if searching w pair_id then begin
    Hashtbl.remove w.w_live pair_id;
    w.observer (Search_abandoned { pair = pair_id })
  end

let note_starved w ~pair_id =
  w.starved <- w.starved + 1;
  Metrics.incr m_starved_searches;
  w.observer (Search_starved { pair = pair_id });
  Hashtbl.remove w.w_live pair_id;
  w.w_starves.(pair_id) <- w.w_starves.(pair_id) + 1;
  if w.w_starves.(pair_id) >= starve_limit then begin
    Bytes.set_uint8 w.w_hopeless pair_id 1;
    sync_pair w pair_id
  end

(* --- diffusing computation (Algorithm 2) --- *)

let start_computation w ~initiator ~pair_id =
  let v = initiator in
  w.computations <- w.computations + 1;
  Metrics.incr m_computations;
  w.seq <- w.seq + 1;
  let init = (v, w.seq) in
  w.veh_init_id.(v) <- v;
  w.veh_init_seq.(v) <- w.seq;
  w.veh_par.(v) <- -1;
  w.veh_child.(v) <- -1;
  let num = count_alive_neighbors w v in
  w.veh_num.(v) <- num;
  if num = 0 then note_starved w ~pair_id
  else begin
    w.observer (Computation_started { initiator = v; pair = pair_id });
    set_transfer w v tr_initiator;
    Hashtbl.replace w.w_live pair_id w.seq;
    Hashtbl.replace w.phase2 v pair_id;
    iter_alive_neighbors w v (fun q ->
        send_reliable w ~src:v ~dst:q (Query { init }))
  end

let complete_initiator w v =
  set_transfer w v tr_waiting;
  match Hashtbl.find_opt w.phase2 v with
  | None -> ()
  | Some pair_id ->
      Hashtbl.remove w.phase2 v;
      if w.veh_child.(v) >= 0 then begin
        w.observer (Candidate_found { initiator = v; pair = pair_id });
        send_reliable w ~src:v ~dst:w.veh_child.(v)
          (Move
             {
               init = (w.veh_init_id.(v), w.veh_init_seq.(v));
               dest = w.topo.pair_anchor.(pair_id);
               pair = pair_id;
             })
      end
      else note_starved w ~pair_id

let same_init w p (iid, iseq) =
  w.veh_init_id.(p) = iid && w.veh_init_seq.(p) = iseq

let handle_query w p ~src init =
  if alive w p then begin
    if transfer w p = tr_waiting && not (same_init w p init) then begin
      let iid, iseq = init in
      w.veh_par.(p) <- src;
      w.veh_init_id.(p) <- iid;
      w.veh_init_seq.(p) <- iseq;
      w.veh_child.(p) <- -1;
      if working w p = st_idle then
        send_reliable w ~src:p ~dst:src (Reply { init; flag = true })
      else begin
        let num = count_alive_neighbors w p in
        w.veh_num.(p) <- num;
        if num = 0 then
          send_reliable w ~src:p ~dst:src (Reply { init; flag = false })
        else begin
          set_transfer w p tr_searching;
          iter_alive_neighbors w p (fun q ->
              send_reliable w ~src:p ~dst:q (Query { init }))
        end
      end
    end
    else send_reliable w ~src:p ~dst:src (Reply { init; flag = false })
  end

let handle_reply w p ~src init flag =
  if alive w p && same_init w p init && transfer w p <> tr_waiting then begin
    w.veh_num.(p) <- w.veh_num.(p) - 1;
    if flag && w.veh_child.(p) < 0 then begin
      w.veh_child.(p) <- src;
      if w.veh_par.(p) >= 0 then
        send_reliable w ~src:p ~dst:w.veh_par.(p) (Reply { init; flag = true })
    end;
    if w.veh_num.(p) = 0 then begin
      if transfer w p = tr_initiator then complete_initiator w p
      else begin
        (* Searching *)
        set_transfer w p tr_waiting;
        if w.veh_child.(p) < 0 && w.veh_par.(p) >= 0 then
          send_reliable w ~src:p ~dst:w.veh_par.(p) (Reply { init; flag = false })
      end
    end
  end

let handle_move w p init ~dest ~pair_id =
  if alive w p && live w pair_id (snd init) then begin
    if working w p = st_idle then begin
      (* Phase II terminus: the candidate relocates and takes over. *)
      spend w p (float_of_int (w.topo.dist w.veh_pos.(p) dest));
      w.veh_pos.(p) <- dest;
      set_working w p st_active;
      w.veh_pair.(p) <- pair_id;
      w.pair_active.(pair_id) <- p;
      w.replacements <- w.replacements + 1;
      Metrics.incr m_replacements;
      w.observer
        (Replacement { vehicle = p; pair = pair_id; dest = w.topo.point dest });
      Hashtbl.remove w.w_live pair_id;
      w.w_stalls.(pair_id) <- 0;
      w.w_starves.(pair_id) <- 0;
      Bytes.set_uint8 w.w_hopeless pair_id 0;
      sync_pair w pair_id;
      send_heartbeat w p;
      if not (armed w pair_id) then
        arm_deadline w ~pair_id ~delay:heartbeat_timeout;
      maybe_break w p
    end
    else if w.veh_child.(p) >= 0 then
      send_reliable w ~src:p ~dst:w.veh_child.(p)
        (Move { init; dest; pair = pair_id })
    else
      (* Broken relay chain: the search failed; the pair's deadline will
         restart it. *)
      note_starved w ~pair_id
  end

(* Abandon a computation stuck on lost messages: reset its initiator so
   the pair's deadline can start a fresh one under a new (init, seq) —
   stale replies to the old identifier are then ignored. *)
let force_clear w ~pair_id =
  let stuck =
    Hashtbl.fold
      (fun init_id pid acc -> if pid = pair_id then init_id :: acc else acc)
      w.phase2 []
  in
  List.iter
    (fun init_id ->
      Hashtbl.remove w.phase2 init_id;
      if transfer w init_id = tr_initiator then set_transfer w init_id tr_waiting)
    stuck

let on_deadline w ~pair_id =
  Bytes.set_uint8 w.w_armed pair_id chain_stopped;
  if not (hopeless w pair_id) then begin
    if active_alive w pair_id then
      arm_deadline w ~pair_id ~delay:(rearm_delay w pair_id)
    else begin
      Metrics.incr m_monitor_timeouts;
      if searching w pair_id then begin
        (* A search is already in flight; give it a little longer, then
           assume its messages are gone and clear the way for a fresh
           one. *)
        w.w_stalls.(pair_id) <- w.w_stalls.(pair_id) + 1;
        if w.w_stalls.(pair_id) >= stall_limit then begin
          w.w_stalls.(pair_id) <- 0;
          abandon_search w ~pair_id;
          force_clear w ~pair_id
        end;
        arm_deadline w ~pair_id ~delay:heartbeat_timeout
      end
      else begin
        (match monitor_of w ~pair_id with
        | None -> note_starved w ~pair_id
        | Some m ->
            if alive w m && transfer w m = tr_waiting then
              start_computation w ~initiator:m ~pair_id);
        if not (hopeless w pair_id) then
          arm_deadline w ~pair_id ~delay:heartbeat_timeout
      end
    end
  end

(* Retry exhaustion: recover per message kind without breaking the
   Dijkstra–Scholten invariants. *)
let give_up w p =
  match p.p_body with
  | Query { init } ->
      (* Account the unreachable neighbor as a negative reply so [num]
         still reaches zero and the computation terminates. *)
      handle_reply w p.p_src ~src:p.p_dst init false
  | Reply _ ->
      (* The parent's own retry/stall machinery recovers. *)
      ()
  | Move { init = _, seq; pair; _ } ->
      (* The relocation order is lost; let the pair's deadline restart
         the search from scratch, unless a later search runs already. *)
      if live w pair seq then abandon_search w ~pair_id:pair

let on_retry w msg_id =
  match Hashtbl.find_opt w.rel_pending msg_id with
  | None -> () (* acked in the meantime *)
  | Some p ->
      if p.attempts >= max_attempts then begin
        Hashtbl.remove w.rel_pending msg_id;
        Metrics.incr m_retry_exhausted;
        give_up w p
      end
      else begin
        p.attempts <- p.attempts + 1;
        w.retries_count <- w.retries_count + 1;
        Metrics.incr m_retries;
        Des.send w.des ~src:p.p_src ~dst:p.p_dst
          (Payload { msg_id; body = p.p_body });
        let backoff = retry_delay *. float_of_int (1 lsl (p.attempts - 1)) in
        Des.send_after ~weak:true w.des ~delay:backoff ~src:p.p_src
          ~dst:p.p_src (Retry { msg_id })
      end

(* --- job service (§3.2.2, first part) --- *)

let retire w v =
  (* An active vehicle that can no longer guarantee the next job (its
     reserve) becomes done and triggers its replacement.  A silent
     initiator (scenario 2) does nothing — its monitor's deadline notices
     the missing heartbeats and initiates on its behalf. *)
  set_working w v st_done;
  Metrics.incr m_retirements;
  w.observer (Vehicle_retired { vehicle = v; pair = w.veh_pair.(v) });
  let pair_id = w.veh_pair.(v) in
  w.pair_active.(pair_id) <- -1;
  sync_pair w pair_id;
  if Bytes.get_uint8 w.silent v = 0 then
    start_computation w ~initiator:v ~pair_id

let process_job w ~index x =
  let fail reason =
    w.failures <- { job = index; position = w.topo.point x; reason } :: w.failures
  in
  let active = w.pair_active.(w.cell_pair.(x)) in
  if active < 0 then fail "no active vehicle in pair"
  else begin
    let walk = w.topo.dist w.veh_pos.(active) x in
    let cost = float_of_int (walk + 1) in
    if w.veh_energy.(active) < cost -. 1e-9 then fail "active vehicle out of energy"
    else begin
      spend w active cost;
      w.veh_pos.(active) <- x;
      w.served <- w.served + 1;
      Metrics.incr m_jobs_served;
      w.observer
        (Job_served
           { job = index; position = w.topo.point x; vehicle = active; walk });
      send_heartbeat w active;
      maybe_break w active;
      if working w active = st_active && w.veh_energy.(active) < reserve w active
      then retire w active
    end
  end

let kill w id =
  if alive w id then begin
    let was_active = working w id = st_active in
    set_working w id st_dead;
    w.observer (Vehicle_died { vehicle = id });
    if was_active then begin
      let pid = w.veh_pair.(id) in
      w.pair_active.(pid) <- -1;
      sync_pair w pid
    end
  end

(* A restart after a communication outage: the vehicle's pending
   self-timers died with the crash, so re-arm the deadline of the pair
   anchored at it (if one was armed, virtual chains included, so the
   chain restarts as a lost timer's would) and the retry timers of its
   un-acked reliable messages.  Protocol state survives — an outage is
   radio silence, not a breakdown. *)
let on_vehicle_restart w v =
  let pid = w.anchor_pair.(v) in
  if pid >= 0 && armed w pid && not (hopeless w pid) then
    arm_deadline w ~pair_id:pid ~delay:heartbeat_timeout;
  if w.cfg.retries then
    Hashtbl.iter
      (fun msg_id p ->
        if p.p_src = v then
          Des.send_after ~weak:true w.des ~delay:retry_delay ~src:v ~dst:v
            (Retry { msg_id }))
      w.rel_pending

(* --- runner --- *)

let dispatch_body w ~src ~dst body =
  match body with
  | Query { init } -> handle_query w dst ~src init
  | Reply { init; flag } -> handle_reply w dst ~src init flag
  | Move { init; dest; pair } -> handle_move w dst init ~dest ~pair_id:pair

let dispatch w ~time:_ ~src ~dst msg =
  match msg with
  | Payload { msg_id; body } ->
      (* Transport layer: a live receiver acks (also on duplicates, in
         case the first ack was lost) and processes each msg_id once. *)
      if alive w dst then begin
        if w.cfg.retries then Des.send w.des ~src:dst ~dst:src (Ack { msg_id });
        if not (seen_mem w msg_id) then begin
          seen_add w msg_id;
          dispatch_body w ~src ~dst body
        end
      end
  | Ack { msg_id } -> Hashtbl.remove w.rel_pending msg_id
  | Heartbeat { pair } -> on_heartbeat w ~pair_id:pair
  | Deadline -> on_deadline w ~pair_id:w.anchor_pair.(dst)
  | Retry { msg_id } -> on_retry w msg_id

(* Quiescence for the drain: no un-acked reliable message, and every pair
   either covered by a live active vehicle or given up on.  Anything else
   means the weak timers still have work to do.  [uncovered] is kept
   current by [sync_pair], so the poll is O(1). *)
let protocol_idle w = Hashtbl.length w.rel_pending = 0 && w.uncovered = 0

let capacity_bound ~dim omega =
  float_of_int (Energy.add (Energy.scale 4 (Energy.pow 3 dim)) dim) *. omega

let empty_outcome =
  {
    served = 0;
    failures = [];
    max_energy_used = 0.0;
    mean_energy_used = 0.0;
    energy_consumers = 0;
    messages = 0;
    replacements = 0;
    computations = 0;
    starved_searches = 0;
    vehicles = 0;
    vehicles_still_serviceable = 0;
    drops = 0;
    dups = 0;
    retries_sent = 0;
    livelocks = 0;
    trace_digest = 0;
  }

(* Scheduled fault-plan events, merged and ordered by (job index, kind,
   id): deaths first, then outages, at each index — explicit comparison,
   no polymorphic ordering. *)
type fault_event =
  | Death of int * int (* job index, vehicle *)
  | Outage of int * int * float (* job index, vehicle, restart delay *)

let event_key = function Death (k, id) -> (k, 0, id) | Outage (k, id, _) -> (k, 1, id)

let compare_events a b =
  let ka, ta, ia = event_key a and kb, tb, ib = event_key b in
  match Int.compare ka kb with
  | 0 -> ( match Int.compare ta tb with 0 -> Int.compare ia ib | c -> c)
  | c -> c

let event_index e = match event_key e with k, _, _ -> k

(* Core runner over a topology and the jobs' cells.  [job_index] maps the
   local 1-based arrival position to the index reported in events and
   failures — the fleet runner passes the global position. *)
let run_core ?observer ?(job_index = fun i -> i) cfg topo ~jobs =
  let w = build ?observer cfg topo in
  Des.set_restart_hook w.des (fun ~time:_ v -> on_vehicle_restart w v);
  let quiesce () =
    (* After a livelock the run is degraded: draining stops, remaining
       jobs fail fast against the frozen state, and the outcome
       reports it.  This bounds total work even when retries are off
       and the channels keep eating messages. *)
    if not w.livelocked then
      match
        Des.run_until_quiescent w.des ~budget:cfg.quiesce_budget
          ~idle_ok:(fun () -> protocol_idle w)
          ~handler:(dispatch w)
      with
      | Des.Quiescent -> ()
      | Des.Livelock _ ->
          w.livelocked <- true;
          w.livelocks <- w.livelocks + 1
  in
  let events =
    List.sort compare_events
      (List.map (fun (k, id) -> Death (k, id)) cfg.faults.deaths
      @ List.map (fun (k, id, d) -> Outage (k, id, d)) cfg.faults.outages)
  in
  let remaining = ref events in
  let apply_faults upto =
    let rec loop () =
      match !remaining with
      | e :: rest when event_index e <= upto ->
          remaining := rest;
          (match e with
          | Death (_, id) -> kill w id
          | Outage (_, id, delay) ->
              Des.crash w.des id;
              Des.restart_after w.des ~delay id);
          quiesce ();
          loop ()
      | _ -> ()
    in
    loop ()
  in
  apply_faults 0;
  Array.iteri
    (fun i x ->
      process_job w ~index:(job_index (i + 1)) x;
      quiesce ();
      apply_faults (i + 1))
    jobs;
  let consumers = ref 0 and used_sum = ref 0.0 and used_max = ref 0.0 in
  for v = 0 to topo.cells - 1 do
    let used = cfg.capacity -. w.veh_energy.(v) in
    if used > !used_max then used_max := used;
    if used > 0.0 then begin
      incr consumers;
      used_sum := !used_sum +. used
    end
  done;
  let serviceable = ref 0 in
  for v = 0 to topo.cells - 1 do
    if alive w v && w.veh_energy.(v) >= reserve w v then incr serviceable
  done;
  let outcome =
    {
      served = w.served;
      failures = List.rev w.failures;
      max_energy_used = Float.max 0.0 !used_max;
      mean_energy_used =
        (if !consumers = 0 then 0.0 else !used_sum /. float_of_int !consumers);
      energy_consumers = !consumers;
      messages = Des.messages_delivered w.des;
      replacements = w.replacements;
      computations = w.computations;
      starved_searches = w.starved;
      vehicles = topo.cells;
      vehicles_still_serviceable = !serviceable;
      drops = Des.drops w.des;
      dups = Des.dups w.des;
      retries_sent = w.retries_count;
      livelocks = w.livelocks;
      trace_digest = Des.digest w.des;
    }
  in
  (outcome, w)

let run ?observer cfg workload =
  match jobs_box_of workload with
  | None ->
      validate_plan cfg.faults;
      empty_outcome
  | Some jobs_box ->
      let window = Box.tiled jobs_box ~side:cfg.side in
      fst
        (run_core ?observer cfg (grid_topology cfg window)
           ~jobs:(Array.map (Box.index window) workload.Workload.jobs))

let run_topology ?observer cfg topo ~jobs =
  Array.iter
    (fun c ->
      if c < 0 || c >= topo.cells then
        invalid_arg
          (Printf.sprintf "Online.run_topology: job at cell %d outside [0,%d)" c
             topo.cells))
    jobs;
  fst (run_core ?observer cfg topo ~jobs)

(* --- fleet runner: cube-aligned shard bands on Pool workers --- *)

(* Every protocol channel is confined to one [side]-cube, and shard
   bands are unions of whole tile columns along axis 0, so there are no
   cross-shard channels at all: the bands are fully independent
   simulations, run side by side on [Pool] workers with no
   synchronisation.  Each shard gets its own deterministically derived
   seed; with [shards = 1] the run is byte-identical to {!run}.  See
   docs/SCALE.md. *)

type fleet_outcome = {
  aggregate : outcome;
  shard_outcomes : outcome array;
  shard_digests : int array;
  shard_count : int;
  bytes_per_vehicle : float;
}

type band = {
  band_index : int;
  band_window : Box.t;
  band_config : config;
  band_topology : topology;
  band_jobs : int array;
  band_job_index : int array;
}

let world_footprint_bytes w =
  Obj.reachable_words (Obj.repr w) * (Sys.word_size / 8)

(* Same FNV-style mix as Des.digest, for folding shard digests into one
   combined witness. *)
let mix_digest h x = (h lxor x) * 0x100000001b3 land max_int

let derived_seed seed s = seed lxor (s * 0x9e3779b9)

let empty_fleet =
  {
    aggregate = empty_outcome;
    shard_outcomes = [||];
    shard_digests = [||];
    shard_count = 0;
    bytes_per_vehicle = 0.0;
  }

let aggregate_outcomes (outs : outcome array) =
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let consumers = sum (fun o -> o.energy_consumers) in
  let used_sum =
    Array.fold_left
      (fun acc o -> acc +. (o.mean_energy_used *. float_of_int o.energy_consumers))
      0.0 outs
  in
  let digests = Array.map (fun o -> o.trace_digest) outs in
  {
    served = sum (fun o -> o.served);
    failures =
      List.stable_sort
        (fun a b -> Int.compare a.job b.job)
        (List.concat_map (fun (o : outcome) -> o.failures) (Array.to_list outs));
    max_energy_used =
      Array.fold_left (fun acc o -> Float.max acc o.max_energy_used) 0.0 outs;
    mean_energy_used =
      (if consumers = 0 then 0.0 else used_sum /. float_of_int consumers);
    energy_consumers = consumers;
    messages = sum (fun o -> o.messages);
    replacements = sum (fun o -> o.replacements);
    computations = sum (fun o -> o.computations);
    starved_searches = sum (fun o -> o.starved_searches);
    vehicles = sum (fun o -> o.vehicles);
    vehicles_still_serviceable = sum (fun o -> o.vehicles_still_serviceable);
    drops = sum (fun o -> o.drops);
    dups = sum (fun o -> o.dups);
    retries_sent = sum (fun o -> o.retries_sent);
    livelocks = sum (fun o -> o.livelocks);
    trace_digest =
      (if Array.length digests = 1 then digests.(0)
       else Array.fold_left mix_digest 0x1505 digests);
  }

let run_fleet ?workers ?observer ~shards cfg workload =
  if shards < 1 then invalid_arg "Online.run_fleet: shards must be positive";
  let jobs = workload.Workload.jobs in
  match jobs_box_of workload with
  | None ->
      validate_plan cfg.faults;
      empty_fleet
  | Some jobs_box ->
      let window = Box.tiled jobs_box ~side:cfg.side in
      let n = Box.volume window in
      validate_plan cfg.faults;
      validate_ids ~n cfg.faults cfg.partitions;
      let side = cfg.side in
      let tiles0 = Box.side window 0 / side in
      let eff = max 1 (min shards tiles0) in
      let bound s = s * tiles0 / eff in
      let tile_shard = Array.make tiles0 0 in
      for s = 0 to eff - 1 do
        for tile = bound s to bound (s + 1) - 1 do
          tile_shard.(tile) <- s
        done
      done;
      let lo0 = window.Box.lo.(0) in
      let shard_of_point p = tile_shard.((p.(0) - lo0) / side) in
      let boxes =
        Array.init eff (fun s ->
            let lo = Array.copy window.Box.lo and hi = Array.copy window.Box.hi in
            lo.(0) <- lo0 + (bound s * side);
            hi.(0) <- lo0 + (bound (s + 1) * side) - 1;
            Box.make ~lo ~hi)
      in
      (* Split arrivals per band, keeping the global 1-based positions for
         fault translation and reporting. *)
      let rev_jobs = Array.make eff [] in
      Array.iteri
        (fun i p ->
          let s = shard_of_point p in
          rev_jobs.(s) <- (i + 1, p) :: rev_jobs.(s))
        jobs;
      let shard_jobs = Array.map (fun l -> Array.of_list (List.rev l)) rev_jobs in
      (* Global vehicle id -> local id within shard [s], if it lives there. *)
      let local_id s id =
        let home = Box.point_of_index window id in
        if shard_of_point home = s then Some (Box.index boxes.(s) home) else None
      in
      (* Global job index -> how many of shard [s]'s jobs precede it. *)
      let local_k s k =
        Array.fold_left
          (fun acc (gi, _) -> if gi <= k then acc + 1 else acc)
          0 shard_jobs.(s)
      in
      (* A fault after the k-th job, for k past the last job, never fires
         in [run]; [local_k] would move it to the band's last job. *)
      let fires k = k <= Array.length jobs in
      let shard_cfg s =
        let faults =
          {
            silent_initiators =
              List.filter_map (local_id s) cfg.faults.silent_initiators;
            deaths =
              List.filter_map
                (fun (k, id) ->
                  if fires k then Option.map (fun lid -> (local_k s k, lid)) (local_id s id)
                  else None)
                cfg.faults.deaths;
            longevity =
              List.filter_map
                (fun (id, p) -> Option.map (fun lid -> (lid, p)) (local_id s id))
                cfg.faults.longevity;
            outages =
              List.filter_map
                (fun (k, id, d) ->
                  if fires k then Option.map (fun lid -> (local_k s k, lid, d)) (local_id s id)
                  else None)
                cfg.faults.outages;
          }
        in
        (* A partition across bands is moot: there is no cross-band channel
           to cut. *)
        let partitions =
          List.filter_map
            (fun (a, b) ->
              match (local_id s a, local_id s b) with
              | Some la, Some lb -> Some (la, lb)
              | _ -> None)
            cfg.partitions
        in
        { cfg with seed = derived_seed cfg.seed s; faults; partitions }
      in
      (* The bands are translates along axis 0, of at most two widths, and
         a grid topology's arrays depend only on its window's shape: one
         is built per width, and each band gets its own [point]. *)
      let by_width = Hashtbl.create 2 in
      let band_topology box =
        let width = Box.side box 0 in
        let shape =
          match Hashtbl.find_opt by_width width with
          | Some t -> t
          | None ->
              let t = grid_topology cfg box in
              Hashtbl.replace by_width width t;
              t
        in
        let point = Box.point_of_index box in
        { shape with point; dist = (fun a b -> Point.l1_dist (point a) (point b)) }
      in
      (* Materialize every band on this domain so the workers only read
         their own immutable band record. *)
      let bands =
        Array.init eff (fun s ->
            let band_config = shard_cfg s in
            {
              band_index = s;
              band_window = boxes.(s);
              band_config;
              band_topology = band_topology boxes.(s);
              band_jobs = Array.map (fun (_, p) -> Box.index boxes.(s) p) shard_jobs.(s);
              band_job_index = Array.map fst shard_jobs.(s);
            })
      in
      let saved = Pool.workers () in
      (match workers with Some k -> Pool.set_workers k | None -> ());
      let results =
        Fun.protect
          ~finally:(fun () -> Pool.set_workers saved)
          (fun () ->
            Pool.map
              (fun b ->
                let job_index i = if i = 0 then 0 else b.band_job_index.(i - 1) in
                let o, w =
                  run_core
                    ?observer:(Option.map (fun f -> f b) observer)
                    ~job_index b.band_config b.band_topology ~jobs:b.band_jobs
                in
                (* Weighed as its band ends, a world is garbage before the
                   next band starts: a call holds one band's world per
                   worker, not every band's.  Every band is weighed: its
                   event arena, dedup set and in-flight tables grow with
                   its own traffic, not with its width. *)
                (o, world_footprint_bytes w))
              bands)
      in
      let outs = Array.map fst results in
      let total_bytes = Array.fold_left (fun acc (_, b) -> acc + b) 0 results in
      let vehicles = Array.fold_left (fun acc o -> acc + o.vehicles) 0 outs in
      let bytes_per_vehicle =
        float_of_int total_bytes /. float_of_int (max 1 vehicles)
      in
      Metrics.set_gauge m_bytes_per_vehicle bytes_per_vehicle;
      {
        aggregate = aggregate_outcomes outs;
        shard_outcomes = outs;
        shard_digests = Array.map (fun o -> o.trace_digest) outs;
        shard_count = eff;
        bytes_per_vehicle;
      }

let recommended ?(seed = 0) workload =
  let dm = Workload.demand workload in
  let omega, side = Omega.cube_fixpoint_with_side dm in
  let dim = workload.Workload.dim in
  (* +4 cushions the integer-lattice overheads (the done threshold and the
     walk-to-serve step) that Lemma 3.3.1's continuous accounting drops. *)
  config ~seed ~capacity:(capacity_bound ~dim omega +. 4.0) ~side ()

let min_feasible_capacity ?(tol = 0.25) ?(seed = 0) ~side workload =
  let succeeds capacity =
    succeeded (run (config ~seed ~capacity ~side ()) workload)
  in
  Bisect.least ~tol ~start:4.0 ~attempts:30 succeeds
