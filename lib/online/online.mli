(** The decentralized on-line strategy of Chapter 3, hardened against
    unreliable channels.

    The world is a {!topology}: cells with one vehicle each, a
    communication graph, pairs of cells and the rings that group them.
    The vehicle on the anchor cell of each pair starts [Active] and
    serves every job arriving at either cell of its pair; its partner
    starts [Idle].  When an active vehicle's energy falls below its
    pair's walk plus one job, it becomes [Done] and starts a
    Dijkstra–Scholten diffusing computation (§3.1, Algorithm 2) over the
    communication graph to locate an idle vehicle; phase II routes a
    [Move] order down the discovered tree path, and the idle candidate
    relocates to the anchor and takes over the pair.

    The grid is one producer of that record ({!grid_topology}, behind
    {!run} and {!run_fleet}): the cells are the window's lattice points,
    the rings are its [side]-cubes, each cube's cells are matched into
    adjacent black/white pairs (via {!Snake.pairing}, walk 1), and cells
    at most [comm_radius] apart in one cube are linked.  The window is
    tiled by whole cubes, so every cube has the same pairs and links up
    to translation: they are computed once and stamped onto each cube.
    A general graph is another producer ([Gonline.topology], run through
    {!run_topology}).

    Failure handling follows §3.2.5 with real messages: the active
    vehicle of each pair heartbeats to its monitor — the active vehicle
    of the next pair of the ring, realizing the paper's
    "monitoring"-pointer loop — and a per-pair deadline timer notices
    missing heartbeats and has the monitor initiate the replacement.  A
    vehicle that fails to initiate (scenario 2) or dies outright
    (scenario 3) is therefore detected without any out-of-band signal.
    While a pair's active vehicle is alive its deadline chain is computed,
    not simulated, so an idle pair costs no event and a run does not
    depend on how many idle vehicles its window holds.

    The message layer ({!Des}) can drop, duplicate and delay messages,
    partition vehicle pairs, and the protocol survives it: every
    [Query]/[Reply]/[Move] travels in a reliable-delivery envelope with a
    unique message id, acknowledgements, exponential-backoff
    retransmission and receiver-side deduplication (which preserves the
    Dijkstra–Scholten [num]/[par] invariants under retries).  Drains are
    budget-bounded: a protocol that stops making progress (e.g. retries
    disabled on lossy channels) ends in a reported livelock instead of an
    infinite spin.  See docs/ROBUSTNESS.md for the full design.

    Modelling notes (DESIGN.md §2): the communication graph links depots,
    not positions — on the grid, depots within [comm_radius] (default 2)
    in the same cube, constant-equivalent since vehicles stay within
    distance 1 of a pair cell; message delays are random but FIFO per
    channel.  Job arrivals are spaced so that the network quiesces in
    between, exactly the paper's timing assumption. *)

type fault_plan = {
  silent_initiators : int list;
      (** vehicles that, on becoming done, fail to start the diffusing
          computation (scenario 2) *)
  deaths : (int * int) list;
      (** [(k, v)]: vehicle [v] breaks down (dead, cannot serve or relay)
          immediately after the [k]-th job has been processed; [k = 0]
          kills before the first job (scenarios 3–4) *)
  longevity : (int * float) list;
      (** Chapter 4 longevity parameters [(v, p)]: vehicle [v] breaks the
          moment a fraction [p ∈ [0,1]] of its initial energy has been
          spent (scenario 4).  Unlisted vehicles have [p = 1] (never
          break this way). *)
  outages : (int * int * float) list;
      (** [(k, v, d)]: vehicle [v] falls radio-silent (its channel
          endpoints crash, pending timers included) immediately after the
          [k]-th job, and comes back [d] simulation-time units later.
          Unlike [deaths] the vehicle's protocol state survives: on
          restart its lost self-timers (pair deadline, retry backoff) are
          re-armed and it resumes where it was — the crash/restart leg of
          the chaos test matrix. *)
}

val no_faults : fault_plan

type config = {
  capacity : float;  (** initial energy [W] of every vehicle *)
  side : int;  (** cube side of the grid partition *)
  comm_radius : int;
      (** grid neighbor radius (the paper's constant, 2); this and [side]
          are read only by the grid producer *)
  seed : int;  (** message-delay and channel-fault randomness *)
  faults : fault_plan;
  chaos : Des.faults;
      (** channel fault profile applied to every vehicle-to-vehicle
          channel (default {!Des.reliable}) *)
  partitions : (int * int) list;
      (** vehicle pairs whose link is cut for the whole run *)
  retries : bool;
      (** enable the ack/retry reliable-delivery layer (default [true]);
          disabling it under a lossy [chaos] profile is how to observe a
          livelock *)
  quiesce_budget : int;
      (** max events dispatched per inter-job drain before declaring a
          livelock (default 100_000) *)
}

val config :
  ?comm_radius:int ->
  ?seed:int ->
  ?faults:fault_plan ->
  ?chaos:Des.faults ->
  ?partitions:(int * int) list ->
  ?retries:bool ->
  ?quiesce_budget:int ->
  capacity:float ->
  side:int ->
  unit ->
  config
(** Validated constructor: positive capacity/side/comm_radius/budget,
    death job indices non-negative, longevity fractions in [\[0,1\]]
    ([Invalid_argument] otherwise).  Vehicle ids in [faults] and
    [partitions] are checked against the fleet once its size is known,
    when a run starts. *)

type failure = {
  job : int;  (** 1-based index in the arrival sequence *)
  position : Point.t;
  reason : string;
}

type outcome = {
  served : int;
  failures : failure list;
  max_energy_used : float;  (** peak consumption over all vehicles *)
  mean_energy_used : float;  (** over vehicles that consumed anything *)
  energy_consumers : int;
      (** vehicles that consumed any energy — the weight behind
          [mean_energy_used], so shard outcomes aggregate exactly *)
  messages : int;
      (** events delivered (E8): protocol messages and timer ticks *)
  replacements : int;  (** completed phase-II relocations *)
  computations : int;  (** diffusing computations initiated *)
  starved_searches : int;  (** computations that found no idle vehicle *)
  vehicles : int;  (** fleet size (window volume) *)
  vehicles_still_serviceable : int;
      (** vehicles alive with enough energy for another job at the end of
          the run — Lemma 3.3.1 keeps this at least half the fleet at the
          theorem capacity *)
  drops : int;
      (** messages lost to channel faults or partitions, or sent to or
          from a crashed vehicle, and timers a crash lost *)
  dups : int;  (** duplicate copies injected by the channels *)
  retries_sent : int;  (** reliable-layer retransmissions *)
  livelocks : int;  (** drains that exhausted [quiesce_budget] *)
  trace_digest : int;
      (** {!Des.digest} of the run — equal across runs with the same seed
          and fault configuration *)
}

val succeeded : outcome -> bool
(** No failed job and no energy violation. *)

(** Protocol-level events, emitted in causal order to an optional
    observer — the audit trail behind the aggregate counters. *)
type event =
  | Job_served of { job : int; position : Point.t; vehicle : int; walk : int }
  | Vehicle_retired of { vehicle : int; pair : int }
      (** became done after exhausting its energy (§3.2.1) *)
  | Vehicle_died of { vehicle : int }  (** scenario 3/4 breakdown *)
  | Computation_started of { initiator : int; pair : int }
      (** a diffusing computation began (Algorithm 2) *)
  | Candidate_found of { initiator : int; pair : int }
      (** phase I terminated with a candidate; phase II (Move) begins *)
  | Replacement of { vehicle : int; pair : int; dest : Point.t }
      (** the candidate relocated and took the pair over *)
  | Search_starved of { pair : int }
      (** no idle vehicle could be found for the pair *)
  | Search_abandoned of { pair : int }
      (** the pair's search was given up as lost: its deadline stalled
          three times, or its [Move] ran out of retries.  The deadline
          starts a fresh computation. *)

val run : ?observer:(event -> unit) -> config -> Workload.t -> outcome
(** Executes the strategy on the arrival sequence, over the grid topology
    of the window that tiles the jobs' bounding box by [side]-cubes.
    [observer] (default ignore) receives every protocol event as it
    happens.  Raises [Invalid_argument] if the fault plan or partitions
    name vehicles outside the fleet. *)

(** The world the protocol runs in, as data.  Cells are [0 .. cells-1],
    and vehicle [v] starts on cell [v]. *)
type topology = {
  cells : int;  (** one vehicle per cell *)
  nbr_off : int array;
  nbr_ids : int array;
      (** the communication graph in CSR form: the neighbours of cell [c]
          are [nbr_ids.(nbr_off.(c)) .. nbr_ids.(nbr_off.(c+1) - 1)], in
          Query fan-out order *)
  ring_off : int array;
      (** the pairs of ring [r] are [ring_off.(r) .. ring_off.(r+1) - 1];
          a ring is a monitoring order (a cube on the grid, a cluster on a
          graph) *)
  pair_ring : int array;  (** pair -> its ring *)
  pair_anchor : int array;
      (** pair -> the cell that hosts its first active vehicle and its
          deadline timer, and where a replacement moves to *)
  pair_partner : int array;  (** pair -> its other cell, or [-1] *)
  pair_walk : int array;
      (** pair -> the walk across it: an active vehicle retires when its
          energy falls below [walk + 1] *)
  dist : int -> int -> int;
      (** travel cost between two cells, read per job and per relocation *)
  point : int -> Point.t;  (** a cell's name in events and failures *)
}

val grid_topology : config -> Box.t -> topology
(** The grid's topology on a window tiled by whole [config.side]-cubes:
    one cell per lattice point in row-major order ({!Box.index}), one
    ring per cube in {!Box.partition_cubes}'s order, its pairs in
    {!Snake.pairing}'s order (the leftover cell of an odd cube last,
    partner [-1]), and each cell's links to the cells of its cube at
    L1 distance at most [config.comm_radius], in {!Box.iter} order.
    [point] is {!Box.point_of_index} and [dist] the L1 distance between
    two cells' points.  Raises [Invalid_argument] if a side of the
    window is not a multiple of [config.side]. *)

val run_topology :
  ?observer:(event -> unit) -> config -> topology -> jobs:int array -> outcome
(** Like {!run}, on an explicit topology and the cells of the arrivals;
    [config.side] and [config.comm_radius] are not read.  The record is
    trusted, not checked: every cell must be in exactly one pair, and a
    pair's ring must be the range that holds it.  Raises
    [Invalid_argument] on a job outside [\[0, cells)], or on a fault plan
    or partitions naming vehicles outside the fleet. *)

val fleet_size : config -> Workload.t -> int
(** Number of vehicles [run] would deploy (the window volume) — the valid
    id range for fault plans and partitions; 0 for an empty workload. *)

(** {1 Fleet runs in parallel bands}

    For production-scale fleets (ROADMAP: 10^6 vehicles) the window is
    split into bands of whole [side]-tile columns along axis 0 and each
    band is simulated on a {!Pool} worker.  Every protocol channel is
    confined to one [side]-cube and cubes never straddle a band
    boundary, so the bands exchange no messages and run as fully
    independent simulations with no synchronisation — see docs/SCALE.md
    for the argument and the memory model. *)

type fleet_outcome = {
  aggregate : outcome;
      (** exact sums/maxima over the shard outcomes; [mean_energy_used]
          is consumer-weighted via [energy_consumers], and
          [trace_digest] folds the per-shard digests (or equals the
          single shard's digest when [shard_count = 1]) *)
  shard_outcomes : outcome array;
  shard_digests : int array;
      (** per-shard {!Des} digests, in band order — bit-identical across
          reruns and across worker counts for a fixed shard count *)
  shard_count : int;  (** effective count: [min shards (tile columns)] *)
  bytes_per_vehicle : float;
      (** simulator + protocol heap footprint divided by the fleet size
          (also the ["des.bytes_per_vehicle"] gauge): each band's world
          is weighed as the band ends *)
}

(** One band of a {!run_fleet} call: everything a band's run reads, as
    its observer sees it. *)
type band = {
  band_index : int;  (** position in band order, from 0 *)
  band_window : Box.t;  (** whole tile columns of the window along axis 0 *)
  band_config : config;
      (** the band's derived seed, and the fault plan and partitions in
          band-local vehicle ids *)
  band_topology : topology;  (** the {!grid_topology} of [band_window] *)
  band_jobs : int array;  (** the cells of the band's arrivals, in order *)
  band_job_index : int array;
      (** their global 1-based arrival positions, as events report them *)
}

val run_fleet :
  ?workers:int ->
  ?observer:(band -> event -> unit) ->
  shards:int ->
  config ->
  Workload.t ->
  fleet_outcome
(** Runs the strategy sharded into [shards] bands ([?workers] temporarily
    overrides the {!Pool} width).  Vehicle ids in the fault plan and
    partitions are global window ids, translated per band; a partition
    across bands is dropped (no cross-band channel exists to cut).
    Band [s] runs under a seed derived from [config.seed]; with
    [shards = 1] the result is identical to {!run}.  [observer b]
    receives band [b]'s protocol events, on the worker that runs the
    band, so observers of different bands must not share mutable state
    when [workers > 1].  Raises [Invalid_argument] on a non-positive
    [shards]. *)

val capacity_bound : dim:int -> float -> float
(** [(4·3^l + l)·ω] — the capacity Lemma 3.3.1 proves sufficient. *)

val recommended : ?seed:int -> Workload.t -> config
(** Config with the side [⌈ωc⌉] and theorem capacity derived from the
    workload's aggregate demand (what an informed designer would pick). *)

val min_feasible_capacity :
  ?tol:float -> ?seed:int -> side:int -> Workload.t -> float
(** Smallest capacity (within [tol], default 0.25) at which the strategy
    serves every job — the measured [Won] upper bound of experiment E7.
    Runs the full simulation per probe. *)
