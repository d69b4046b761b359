(* Parametric max-flow driver in the Gallo–Grigoriadis–Tarjan mold: all
   source-adjacent edges carry one integer parameter [u] as their
   capacity, and the min-cut value F(u) is a concave piecewise-linear
   function whose slope at [u] is the number of source edges crossing the
   min cut.  Because the sweep over [u] is monotone and the arena retains
   its flow between probes, the sweep costs about one flow computation —
   each probe only augments the delta its capacity raise opened up, and
   the discrete-Newton jump rule visits at most one level per distinct
   cut slope.

   [solve] finds the minimal level with F(u) = target (the supply search
   of [Transport.min_uniform_supply]).  [grow] re-targets the driver
   after the caller added suppliers/links to the same arena: the routed
   flow is kept, and the next [solve] re-normalizes with a drain instead
   of recomputing from scratch. *)

let m_probes = Metrics.counter "paramflow.probes"

type t = {
  net : Maxflow.t;
  source : int;
  sink : int;
  mutable src_edges : int array;
  mutable target : int;
  mutable routed : int; (* current flow value in the arena *)
  mutable level : int; (* uniform capacity on src_edges; -1 = mixed *)
  mutable answer : int option;
  mutable solved : bool;
}

let create ~net ~source ~sink ~src_edges ~target =
  if target < 0 then invalid_arg "Paramflow.create: negative target";
  {
    net;
    source;
    sink;
    src_edges = Array.copy src_edges;
    target;
    routed = 0;
    level = -1;
    answer = None;
    solved = false;
  }

let target t = t.target
let solved t = t.solved

(* Slope of the min-cut line at the current state: the number of source
   edges crossing the cut (head outside the residually-reachable side). *)
let cut_slope t =
  let side = Maxflow.min_cut_side t.net ~source:t.source in
  let k = ref 0 in
  Array.iter
    (fun e -> if not side.(Maxflow.edge_dst t.net e) then incr k)
    t.src_edges;
  !k

let move_to t u =
  if t.level <> u then begin
    let drained =
      Maxflow.drain_even_caps t.net t.src_edges u ~source:t.source
        ~sink:t.sink
    in
    t.routed <- Energy.sub t.routed drained;
    t.level <- u
  end

let probe_here t =
  Metrics.incr m_probes;
  let inc = Maxflow.max_flow t.net ~source:t.source ~sink:t.sink in
  t.routed <- Energy.add t.routed inc;
  t.routed

let solve t =
  if t.solved then t.answer
  else begin
    let s = Array.length t.src_edges in
    let result =
      if t.target = 0 then Some 0
      else if s = 0 then None
      else begin
        (* the all-source-edges cut gives F(u) <= s*u, so any feasible
           level is at least ceil(target / s) — jump straight there *)
        move_to t ((t.target + s - 1) / s);
        let res = ref None and finished = ref false in
        while not !finished do
          let value = probe_here t in
          let k = cut_slope t in
          if value = t.target then begin
            res := Some t.level;
            finished := true
          end
          else if k = 0 then begin
            (* a cut of constant capacity < target: no finite level *)
            res := None;
            finished := true
          end
          else begin
            let deficit = t.target - value in
            move_to t (t.level + ((deficit + k - 1) / k))
          end
        done;
        !res
      end
    in
    t.answer <- result;
    t.solved <- true;
    result
  end

let grow t ~src_edges =
  t.src_edges <- Array.copy src_edges;
  t.answer <- None;
  t.solved <- false;
  t.level <- -1

let retarget t ~target =
  if target < 0 then invalid_arg "Paramflow.retarget: negative target";
  t.target <- target;
  t.answer <- None;
  t.solved <- false

(* Patch one non-parametric sink-adjacent edge's capacity in place.  A
   raise keeps the routed flow (the residual just widens); a lowering
   below the edge's current flow cancels the surplus along the flow
   decomposition and the routed value drops accordingly.  Either way the
   cached answer describes the old network and is dropped; the sweep
   level and retained flow survive, so the next [solve] is a warm
   re-sweep. *)
let patch_sink_cap t edge c =
  if Maxflow.flow_on t.net edge > c then begin
    let d =
      Maxflow.drain_sink_caps t.net [| edge |] c ~source:t.source
        ~sink:t.sink
    in
    t.routed <- Energy.sub t.routed d
  end
  else Maxflow.set_even_caps t.net [| edge |] c;
  t.answer <- None;
  t.solved <- false
