(* Parametric max-flow driver in the Gallo–Grigoriadis–Tarjan mold: the
   parametric source-adjacent edges carry one integer parameter [u] as
   their capacity, and the min-cut value F(u) is a concave
   piecewise-linear function whose slope at [u] is the number of
   parametric edges crossing the min cut.  Because the sweep over [u] is
   monotone and the arena retains its flow between probes, the sweep
   costs about one flow computation — each probe only augments the delta
   its capacity raise opened up, and the discrete-Newton jump rule visits
   at most one level per distinct cut slope.

   [solve] finds the minimal level with F(u) = target (the supply search
   of [Transport.min_uniform_supply]).  Any s–t cut C bounds F from above
   on the current arena, F(u) <= c_C + k_C·u, so it bounds that level
   from below; the sweep starts at the best bound among the trivial cut
   {source} and the last cut a probe found below the target, and Newton
   from below then lands on the same minimal level wherever it starts.
   [grow], [retarget] and [patch_sink_cap] keep the routed flow and the
   recorded cut ([retarget] and [patch_sink_cap] the level too), so a
   re-solve after a small delta pays only for the levels it has to probe
   — none when the retained flow already routes the target at a level
   the bound reaches.

   The two constants of each kept cut, c_C and k_C, are kept too.  A cut
   is recorded off a maximum flow at a uniform level u, where every edge
   leaving it is saturated and every edge entering it idle: its capacity
   is the routed value, so c_C = routed − k_C·u and only k_C is counted.
   [patch_sink_cap] moves c_C when the patched edge leaves the cut.  Any
   other change to the arena — an added edge or vertex, or a capacity
   this driver did not set — shows in [Maxflow.version], and the next
   solve scans both cuts again.  The driver's own moves of the
   parametric capacities leave the constants alone: c_C leaves those
   edges out.  Raising the level is a capacity update; only a lowering
   drains. *)

let m_probes = Metrics.counter "paramflow.probes"

type t = {
  net : Maxflow.t;
  source : int;
  sink : int;
  mutable src_edges : int array;
  mutable src_heads : int array; (* head vertex of each parametric edge *)
  mutable target : int;
  mutable routed : int; (* current flow value in the arena *)
  mutable level : int; (* uniform capacity on src_edges; -1 = mixed *)
  mutable answer : int option;
  mutable solved : bool;
  trivial : bool array; (* the cut {source} *)
  mutable cut : bool array;
      (* source side of the last cut probed below the target; vertices at
         or past its recorded length count as outside *)
  mutable trivial_binds : bool; (* [trivial], not [cut], set the answer *)
  (* c and k of the two kept cuts, current when [consts_at] equals the
     arena's version *)
  mutable trivial_c : int;
  mutable trivial_k : int;
  mutable cut_c : int;
  mutable cut_k : int;
  mutable consts_at : int;
}

let create ~net ~source ~sink ~src_edges ~target =
  if target < 0 then invalid_arg "Paramflow.create: negative target";
  let trivial = Array.init (source + 1) (fun v -> v = source) in
  {
    net;
    source;
    sink;
    src_edges = Array.copy src_edges;
    src_heads = Array.map (Maxflow.edge_dst net) src_edges;
    target;
    routed = 0;
    level = -1;
    answer = None;
    solved = false;
    trivial;
    cut = Array.copy trivial;
    trivial_binds = true;
    trivial_c = 0;
    trivial_k = 0;
    cut_c = 0;
    cut_k = 0;
    consts_at = -1;
  }

let target t = t.target
let solved t = t.solved

let inside side v = v < Array.length side && side.(v)

(* The capacity of cut [side] on the current arena is c + k·u, where k
   counts the parametric edges leaving [side] and c every other edge
   leaving it (non-parametric source edges included).  [scan_cut] reads
   c, then k, off the whole arena. *)
let scan_cut t side =
  let c = ref (Maxflow.cut_capacity t.net side) and k = ref 0 in
  for i = 0 to Array.length t.src_heads - 1 do
    if not (inside side t.src_heads.(i)) then begin
      incr k;
      c := Energy.sub !c (Maxflow.capacity t.net t.src_edges.(i))
    end
  done;
  (!c, !k)

(* Rescan both kept cuts unless their constants are current. *)
let refresh t =
  if t.consts_at <> Maxflow.version t.net then begin
    let c, k = scan_cut t t.trivial in
    t.trivial_c <- c;
    t.trivial_k <- k;
    let c, k = scan_cut t t.cut in
    t.cut_c <- c;
    t.cut_k <- k;
    t.consts_at <- Maxflow.version t.net
  end

(* The least level at which a cut with constants [c] and [k] lets F
   reach the target.  [max_int] when k = 0 and c < target: the cut caps
   F below the target at every level. *)
let cut_floor t c k =
  let deficit = t.target - c in
  if deficit <= 0 then 0
  else if k = 0 then max_int
  else (deficit + k - 1) / k

(* A raise keeps every edge's flow, so it is a capacity update; a
   lowering (or a move from a mixed level) drains.  Neither touches the
   kept constants, which leave the parametric edges out. *)
let move_to t u =
  if t.level <> u then begin
    let current = t.consts_at = Maxflow.version t.net in
    if t.level >= 0 && u > t.level then Maxflow.set_even_caps t.net t.src_edges u
    else begin
      let drained =
        Maxflow.drain_even_caps t.net t.src_edges u ~source:t.source
          ~sink:t.sink
      in
      t.routed <- Energy.sub t.routed drained
    end;
    if current then t.consts_at <- Maxflow.version t.net;
    t.level <- u
  end

let probe_here t =
  Metrics.incr m_probes;
  let inc = Maxflow.max_flow t.net ~source:t.source ~sink:t.sink in
  t.routed <- Energy.add t.routed inc

(* Record the minimal min cut of the maximum flow just probed at the
   uniform level [u], with its constants (see the header: its capacity
   is the routed value). *)
let record_cut t u =
  let n = Maxflow.n_vertices t.net in
  if Array.length t.cut < n then t.cut <- Array.make (2 * n) false;
  Maxflow.min_cut_into t.net ~source:t.source t.cut;
  let k = ref 0 in
  for i = 0 to Array.length t.src_heads - 1 do
    if not (inside t.cut t.src_heads.(i)) then incr k
  done;
  t.cut_k <- !k;
  t.cut_c <- Energy.sub t.routed (Energy.mul !k u)

(* Newton from below: probe [u]; below the target, the probed min cut
   (F(u) = c + k·u) names the least level it allows, strictly above
   [u]. *)
let rec sweep t u =
  move_to t u;
  probe_here t;
  if t.routed = t.target then Some u
  else begin
    record_cut t u;
    t.trivial_binds <- false;
    let next = cut_floor t t.cut_c t.cut_k in
    if next = max_int then None else sweep t next
  end

let solve t =
  if t.solved then t.answer
  else begin
    let result =
      if t.target = 0 then Some 0
      else begin
        refresh t;
        let at_trivial = cut_floor t t.trivial_c t.trivial_k
        and at_cut = cut_floor t t.cut_c t.cut_k in
        let floor = max at_trivial at_cut in
        t.trivial_binds <- at_trivial > at_cut;
        if floor = max_int then None
        else if t.level >= 0 && t.routed = t.target && floor >= t.level then
          (* the retained flow routes the target at [t.level], so the
             answer is at most that; the cut bound says at least *)
          Some t.level
        else sweep t floor
      end
    in
    t.answer <- result;
    t.solved <- true;
    result
  end

let binding_side t =
  match t.answer with
  | Some u when u > 0 -> if t.trivial_binds then t.trivial else t.cut
  | _ -> invalid_arg "Paramflow.binding_side: no positive answer"

let grow t ~src_edges =
  t.src_edges <- Array.copy src_edges;
  t.src_heads <- Array.map (Maxflow.edge_dst t.net) src_edges;
  t.answer <- None;
  t.solved <- false;
  t.level <- -1;
  t.consts_at <- -1

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
   level, retained flow and recorded cut survive, so the next [solve] is
   a warm re-sweep.  A kept cut the edge leaves has its c moved by the
   patch; the sink lies outside both. *)
let patch_sink_cap t edge c =
  let current = t.consts_at = Maxflow.version t.net in
  let old = Maxflow.capacity t.net edge in
  if Maxflow.flow_on t.net edge > c then begin
    let d =
      Maxflow.drain_sink_caps t.net [| edge |] c ~source:t.source
        ~sink:t.sink
    in
    t.routed <- Energy.sub t.routed d
  end
  else Maxflow.set_even_caps t.net [| edge |] c;
  if current then begin
    let tail = Maxflow.edge_dst t.net (edge lxor 1) in
    if inside t.trivial tail then
      t.trivial_c <- Energy.add (Energy.sub t.trivial_c old) c;
    if inside t.cut tail then t.cut_c <- Energy.add (Energy.sub t.cut_c old) c;
    t.consts_at <- Maxflow.version t.net
  end;
  t.answer <- None;
  t.solved <- false
