(* Max-flow arena with one push-relabel core on an edge-array
   representation: edge 2k and its residual twin 2k+1 are stored adjacently,
   so the reverse of edge [e] is [e lxor 1].  Adjacency is CSR-style — edge
   ids grouped by source vertex in one flat array with a prefix-sum index,
   and each slot's destination in a parallel array so a scan reads it
   without going through the edge id — rebuilt lazily after edge
   insertions, so the hot loops (BFS, current-arc scans, discharge) touch
   nothing but int arrays.

   The core is push-relabel with highest-label selection, the gap
   heuristic and periodic global relabeling (two backward BFS passes over
   the existing ring buffer, which also count the vertices per height).
   It runs single-phase with heights up to 2n, so leftover excess drains
   back to the source and the terminal state is a valid *flow*, not a
   preflow — required by the arena contract ([flow_on], warm restarts,
   [drain_even_caps]).  A run labels the arena first and then saturates
   only the residual source arcs whose head can reach the sink: on a warm
   restart most of the source's head-room leads nowhere, and flooding it
   would only push it straight back.

   The hot loops bind the arena's arrays to locals once: OCaml reloads a
   mutable record field at every access. *)

let m_runs = Metrics.counter "maxflow.runs"
let m_residual_edges = Metrics.gauge "maxflow.residual_edges"
let m_relabels = Metrics.counter "maxflow.relabels"
let m_gap_hits = Metrics.counter "maxflow.gap_hits"
let m_global_relabels = Metrics.counter "maxflow.global_relabels"

type t = {
  mutable n : int;
  mutable dst : int array; (* destination per directed edge *)
  mutable cap : int array; (* remaining capacity per directed edge *)
  mutable m : int; (* number of directed edges (including twins) *)
  mutable level : int array; (* push-relabel heights *)
  mutable queue : int array; (* BFS ring buffer, length >= n *)
  mutable adj : int array; (* CSR payload: edge ids grouped by source *)
  mutable adj_dst : int array; (* destination of each CSR slot's edge *)
  mutable adj_start : int array; (* CSR index, length >= n+1 *)
  mutable cur : int array; (* current-arc pointer per vertex *)
  mutable csr_valid : bool;
  mutable initial_cap : int array; (* original capacity of even edges *)
  (* push-relabel scratch *)
  mutable excess : int array; (* length >= n *)
  mutable hcount : int array; (* vertices per height, length >= 2n+1 *)
  mutable bucket : int array; (* head of height bucket, length >= 2n+1 *)
  mutable bnext : int array; (* bucket chaining, length >= n *)
  mutable active : bool array; (* queued-for-discharge flag, length >= n *)
  (* flow-cancellation walk scratch (the drains), owned by the arena so a
     drain allocates nothing; all length >= n, walk_pos all -1 between
     calls *)
  mutable walk_pos : int array; (* index on the walk, -1 = off it *)
  mutable walk_vert : int array; (* vertices of the walk *)
  mutable walk_edge : int array; (* flow-carrying even edge of each step *)
  mutable walk_ptr : int array; (* per-vertex scan pointer, one call *)
  mutable version : int; (* bumped by every edge, vertex or capacity change *)
}

let create n =
  if n < 0 then invalid_arg "Maxflow.create: negative size";
  let n1 = max n 1 in
  {
    n;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    m = 0;
    level = Array.make n1 (-1);
    queue = Array.make n1 0;
    adj = [||];
    adj_dst = [||];
    adj_start = Array.make (n + 1) 0;
    cur = Array.make n1 0;
    csr_valid = false;
    initial_cap = Array.make 8 0;
    excess = Array.make n1 0;
    hcount = Array.make ((2 * n1) + 1) 0;
    bucket = Array.make ((2 * n1) + 1) (-1);
    bnext = Array.make n1 (-1);
    active = Array.make n1 false;
    walk_pos = Array.make n1 (-1);
    walk_vert = Array.make n1 0;
    walk_edge = Array.make n1 0;
    walk_ptr = Array.make n1 0;
    version = 0;
  }

let n_vertices t = t.n
let version t = t.version

let grow_array a fill want =
  let len = max want (2 * Array.length a) in
  let bigger = Array.make (max 1 len) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let reserve t ~vertices ~edges =
  if Array.length t.level < vertices then begin
    t.level <- grow_array t.level (-1) vertices;
    t.queue <- grow_array t.queue 0 vertices;
    t.cur <- grow_array t.cur 0 vertices;
    t.excess <- grow_array t.excess 0 vertices;
    t.bnext <- grow_array t.bnext (-1) vertices;
    t.active <- grow_array t.active false vertices;
    t.walk_pos <- grow_array t.walk_pos (-1) vertices;
    t.walk_vert <- grow_array t.walk_vert 0 vertices;
    t.walk_edge <- grow_array t.walk_edge 0 vertices;
    t.walk_ptr <- grow_array t.walk_ptr 0 vertices
  end;
  if Array.length t.adj_start < vertices + 1 then
    t.adj_start <- grow_array t.adj_start 0 (vertices + 1);
  if Array.length t.hcount < (2 * vertices) + 1 then begin
    t.hcount <- grow_array t.hcount 0 ((2 * vertices) + 1);
    t.bucket <- grow_array t.bucket (-1) ((2 * vertices) + 1)
  end;
  if 2 * edges > Array.length t.dst then begin
    t.dst <- grow_array t.dst 0 (2 * edges);
    t.cap <- grow_array t.cap 0 (2 * edges)
  end;
  if edges > Array.length t.initial_cap then
    t.initial_cap <- grow_array t.initial_cap 0 edges

let add_vertex t =
  let v = t.n in
  reserve t ~vertices:(v + 1) ~edges:(t.m / 2);
  t.n <- v + 1;
  t.csr_valid <- false;
  t.version <- t.version + 1;
  v

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  reserve t ~vertices:t.n ~edges:((t.m / 2) + 1);
  let id = t.m in
  t.dst.(id) <- dst;
  t.cap.(id) <- cap;
  t.dst.(id + 1) <- src;
  t.cap.(id + 1) <- 0;
  t.initial_cap.(id / 2) <- cap;
  t.m <- t.m + 2;
  t.csr_valid <- false;
  t.version <- t.version + 1;
  id

let edge_dst t id =
  if id < 0 || id >= t.m then invalid_arg "Maxflow.edge_dst: bad edge id";
  t.dst.(id)

(* Counting sort of edge ids by source vertex.  The source of edge [e] is
   the destination of its twin, so no separate src array is stored. *)
let build_csr t =
  let start = t.adj_start in
  Array.fill start 0 (t.n + 1) 0;
  for e = 0 to t.m - 1 do
    let src = t.dst.(e lxor 1) in
    start.(src + 1) <- start.(src + 1) + 1
  done;
  for v = 1 to t.n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  if Array.length t.adj < t.m then begin
    t.adj <- Array.make (Array.length t.dst) 0;
    t.adj_dst <- Array.make (Array.length t.dst) 0
  end;
  Array.blit start 0 t.cur 0 t.n;
  for e = 0 to t.m - 1 do
    let src = t.dst.(e lxor 1) in
    t.adj.(t.cur.(src)) <- e;
    t.adj_dst.(t.cur.(src)) <- t.dst.(e);
    t.cur.(src) <- t.cur.(src) + 1
  done;
  t.csr_valid <- true

let ensure_csr t = if not t.csr_valid then build_csr t

(* ------------------------------------------------------------------ *)
(* Push-relabel core                                                  *)
(* ------------------------------------------------------------------ *)

(* One backward BFS from [root], already labeled: every unlabeled vertex
   with a residual arc into a labeled one gets one more than its height,
   counted in [hcount].  Returns how many vertices the pass holds, [root]
   included. *)
let label_from t root =
  let unreached = 2 * t.n in
  let h = t.level and q = t.queue and hcount = t.hcount in
  let adj = t.adj and adj_dst = t.adj_dst and adj_start = t.adj_start in
  let cap = t.cap in
  q.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let w = q.(!head) in
    incr head;
    let next = h.(w) + 1 in
    for i = adj_start.(w) to adj_start.(w + 1) - 1 do
      let v = adj_dst.(i) in
      (* residual arc v->w exists iff the reverse of its edge has
         capacity *)
      if h.(v) = unreached && cap.(adj.(i) lxor 1) > 0 then begin
        h.(v) <- next;
        hcount.(next) <- hcount.(next) + 1;
        q.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* Exact height labeling by two backward BFS passes over the ring buffer:
   first distances-to-sink through residual arcs (the sink side of any
   min cut), then [n + distance-to-source] for what is left (the source
   side); a vertex neither pass reaches gets [2n].  No residual arc
   leaves the source side into the sink side — such an arc would have
   put its tail in the sink-side BFS — so the labeling is valid for the
   current flow, except on residual arcs out of the source itself, whose
   heads the first pass may reach below [n - 1]: [pr_max_flow] saturates
   exactly those.  [hcount] is filled as heights are assigned. *)
let global_relabel t ~source ~sink =
  Metrics.incr m_global_relabels;
  let n = t.n in
  let unreached = 2 * n in
  Array.fill t.level 0 n unreached;
  Array.fill t.hcount 0 (unreached + 1) 0;
  (* the source is labeled first, so the sink-side pass passes it by *)
  t.level.(source) <- n;
  t.hcount.(n) <- 1;
  t.level.(sink) <- 0;
  t.hcount.(0) <- 1;
  let sink_side = label_from t sink in
  let source_side = label_from t source in
  t.hcount.(unreached) <- n - sink_side - source_side

(* Rebuild the active-vertex buckets from scratch; used after every
   global relabel, which has just counted the heights.  Returns the
   highest active height. *)
let rebuild_active t ~source ~sink =
  let n = t.n in
  let level = t.level and excess = t.excess in
  let bucket = t.bucket and bnext = t.bnext and active = t.active in
  Array.fill bucket 0 ((2 * n) + 1) (-1);
  Array.fill active 0 n false;
  let highest = ref (-1) in
  for v = 0 to n - 1 do
    let hv = level.(v) in
    if v <> source && v <> sink && excess.(v) > 0 && hv < 2 * n then begin
      active.(v) <- true;
      bnext.(v) <- bucket.(hv);
      bucket.(hv) <- v;
      if hv > !highest then highest := hv
    end
  done;
  !highest

let pr_max_flow t ~source ~sink =
  let n = t.n in
  let level = t.level and excess = t.excess and hcount = t.hcount in
  let adj = t.adj and adj_dst = t.adj_dst and adj_start = t.adj_start in
  let cur = t.cur and cap = t.cap in
  let bucket = t.bucket and bnext = t.bnext and active = t.active in
  Array.fill excess 0 n 0;
  (* Label first, then saturate only the residual source arcs whose head
     got a height below [n], i.e. can reach the sink: each becomes excess
     at its head.  On a warm restart this is the capacity head-room added
     since the last run that can lead anywhere.  An arc left residual
     ends at a head of height [n] or more, where h(source) = n <=
     h(head) + 1 holds, so the labeling stays valid, every vertex holding
     excess has a finite height, and the run still ends on a maximum
     flow.  The minimal min cut is the same for every maximum flow, so
     the cuts read afterwards do not depend on this order. *)
  global_relabel t ~source ~sink;
  for i = adj_start.(source) to adj_start.(source + 1) - 1 do
    let e = adj.(i) in
    let c = cap.(e) in
    if c > 0 then begin
      let v = adj_dst.(i) in
      if v <> source && level.(v) < n then begin
        cap.(e) <- 0;
        cap.(e lxor 1) <- Energy.add cap.(e lxor 1) c;
        excess.(v) <- Energy.add excess.(v) c
      end
    end
  done;
  Array.blit adj_start 0 cur 0 n;
  let highest = ref (rebuild_active t ~source ~sink) in
  let relabels = ref 0 and gap_hits = ref 0 and relabels_since = ref 0 in
  let gr_period = n + (t.m / 4) + 1 in
  while !highest >= 0 do
    let b = !highest in
    let v = bucket.(b) in
    if v = -1 then decr highest
    else begin
      bucket.(b) <- bnext.(v);
      if not active.(v) then () (* stale after a global relabel rebuild *)
      else if level.(v) <> b then begin
        (* lifted (gap heuristic) while queued: re-file at its height *)
        let hv = level.(v) in
        bnext.(v) <- bucket.(hv);
        bucket.(hv) <- v;
        if hv > !highest then highest := hv
      end
      else begin
        active.(v) <- false;
        (* discharge v *)
        let first = adj_start.(v) and limit = adj_start.(v + 1) in
        let discharging = ref true in
        while !discharging do
          let hv = level.(v) in
          let i = ref cur.(v) in
          let emptied = ref false in
          while (not !emptied) && !i < limit do
            let e = adj.(!i) in
            let w = adj_dst.(!i) in
            let ce = cap.(e) in
            if ce > 0 && hv = level.(w) + 1 then begin
              (* a push empties the arc or the excess, whichever is less *)
              let ex = excess.(v) in
              let delta = if ex < ce then ex else ce in
              if delta = ce then begin
                cap.(e) <- 0;
                excess.(v) <- Energy.sub ex delta
              end
              else begin
                cap.(e) <- Energy.sub ce delta;
                excess.(v) <- 0
              end;
              cap.(e lxor 1) <- Energy.add cap.(e lxor 1) delta;
              excess.(w) <- Energy.add excess.(w) delta;
              if w <> source && w <> sink && not active.(w) then begin
                active.(w) <- true;
                bnext.(w) <- bucket.(level.(w));
                bucket.(level.(w)) <- w
              end;
              if delta = ex then emptied := true else incr i
            end
            else incr i
          done;
          cur.(v) <- !i;
          if !emptied then discharging := false
          else begin
            (* relabel v to one above its lowest residual neighbor *)
            incr relabels;
            incr relabels_since;
            let nh = ref (2 * n) in
            for j = first to limit - 1 do
              if cap.(adj.(j)) > 0 then begin
                let hw = level.(adj_dst.(j)) + 1 in
                if hw < !nh then nh := hw
              end
            done;
            hcount.(hv) <- hcount.(hv) - 1;
            if hcount.(hv) = 0 && hv < n then begin
              (* gap: heights strictly between [hv] and [n] are dead —
                 no residual path to the sink can cross the empty level,
                 so lift those vertices straight past [n]. *)
              incr gap_hits;
              for u = 0 to n - 1 do
                let hu = level.(u) in
                if hu > hv && hu < n then begin
                  hcount.(hu) <- hcount.(hu) - 1;
                  level.(u) <- n + 1;
                  hcount.(n + 1) <- hcount.(n + 1) + 1
                end
              done;
              if !nh < n + 1 then nh := n + 1
            end;
            if !nh >= 2 * n then begin
              (* no residual arc at all: park the vertex (cannot happen
                 when the run starts from a valid flow) *)
              level.(v) <- 2 * n;
              hcount.(2 * n) <- hcount.(2 * n) + 1;
              discharging := false
            end
            else begin
              level.(v) <- !nh;
              hcount.(!nh) <- hcount.(!nh) + 1;
              cur.(v) <- first;
              if !nh > !highest then highest := !nh
            end
          end
        done;
        if !relabels_since >= gr_period then begin
          relabels_since := 0;
          global_relabel t ~source ~sink;
          Array.blit adj_start 0 cur 0 n;
          highest := rebuild_active t ~source ~sink
        end
      end
    end
  done;
  if !relabels > 0 then Metrics.add m_relabels !relabels;
  if !gap_hits > 0 then Metrics.add m_gap_hits !gap_hits;
  excess.(sink)

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Maxflow.max_flow: vertex out of range";
  Metrics.incr m_runs;
  Metrics.set_gauge m_residual_edges (float_of_int t.m);
  ensure_csr t;
  pr_max_flow t ~source ~sink

(* Flow on a valid even edge id. *)
let flow t id = Energy.sub t.initial_cap.(id / 2) t.cap.(id)

let flow_on t id =
  if id < 0 || id >= t.m || id land 1 <> 0 then
    invalid_arg "Maxflow.flow_on: bad edge id";
  flow t id

let set_even_caps t ids c =
  if c < 0 then invalid_arg "Maxflow.set_even_caps: negative capacity";
  t.version <- t.version + 1;
  let cap = t.cap and initial_cap = t.initial_cap and m = t.m in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    if id < 0 || id >= m || id land 1 <> 0 then
      invalid_arg "Maxflow.set_even_caps: bad edge id";
    let residual = Energy.sub c (Energy.sub initial_cap.(id / 2) cap.(id)) in
    if residual < 0 then
      invalid_arg "Maxflow.set_even_caps: capacity below current flow";
    cap.(id) <- residual;
    initial_cap.(id / 2) <- c
  done

(* ------------------------------------------------------------------ *)
(* Capacity lowering: flow cancellation along the decomposition       *)
(* ------------------------------------------------------------------ *)

(* To lower a terminal-adjacent edge's capacity below its routed flow,
   the surplus is cancelled one decomposition walk at a time.  A forward
   walk (source-adjacent edge) starts at the edge's head and follows
   flow-carrying even arcs out of each vertex; a backward walk
   (sink-adjacent edge) starts at the edge's tail and follows
   flow-carrying even arcs INTO each vertex, read as their positive odd
   twins.  Either way the walk stops at the source or the sink.  Reaching
   the far terminal (sink forward, source backward) cancels a full
   source→sink path: the flow value drops.  Reaching the near one cancels
   a cycle through the edge: the value is unchanged.  A revisited vertex
   closes an internal cycle, which is cancelled on the spot and does not
   count against the surplus.  The edge itself is decremented together
   with every terminal walk, so flow conservation holds at both endpoints
   after each cancellation — which is exactly why the edge must touch a
   terminal: for an interior edge the cancellation would have to continue
   on its other side too.  Flow on arcs only ever decreases here, so the
   per-vertex scan pointers advance monotonically and the whole drain is
   near-linear in practice.  Returns the far-terminal (value-lowering)
   part of the cancellation. *)
let cancel_surplus t e c ~source ~sink ~backward =
  (* [parity] is the low bit of the arcs a walk follows; [a lxor parity]
     is the even edge that carries the flow *)
  let parity = if backward then 1 else 0 in
  let start = t.dst.(e lxor parity) in
  let far = if backward then source else sink in
  let pos = t.walk_pos and path_vert = t.walk_vert in
  let path_edge = t.walk_edge and ptr = t.walk_ptr in
  let drained = ref 0 in
  while flow t e > c do
    let need = Energy.sub (flow t e) c in
    let len = ref 0 in
    pos.(start) <- 0;
    path_vert.(0) <- start;
    let w = ref start in
    let terminal = ref (-1) in
    while !terminal < 0 do
      if !w = sink || !w = source then terminal := !w
      else begin
        (* next flow-carrying arc at !w, skipping [e]'s own view *)
        let limit = t.adj_start.(!w + 1) in
        let i = ref ptr.(!w) in
        let chosen = ref (-1) in
        while !chosen < 0 && !i < limit do
          let a = t.adj.(!i) in
          if
            a land 1 = parity
            && a <> e lxor parity
            && t.cap.(a lxor parity lxor 1) > 0
          then chosen := a
          else incr i
        done;
        ptr.(!w) <- !i;
        (* conservation guarantees an arc exists while surplus remains *)
        assert (!chosen >= 0);
        let pe = !chosen lxor parity in
        let u = t.dst.(!chosen) in
        if u <> sink && u <> source && pos.(u) >= 0 then begin
          (* internal cycle through [pe] and the walk from pos.(u): cancel
             its bottleneck *)
          let j0 = pos.(u) in
          let bottleneck = ref t.cap.(pe lxor 1) in
          for j = j0 to !len - 1 do
            let qe = path_edge.(j) in
            if t.cap.(qe lxor 1) < !bottleneck then
              bottleneck := t.cap.(qe lxor 1)
          done;
          let d = !bottleneck in
          t.cap.(pe) <- Energy.add t.cap.(pe) d;
          t.cap.(pe lxor 1) <- Energy.sub t.cap.(pe lxor 1) d;
          for j = j0 to !len - 1 do
            let qe = path_edge.(j) in
            t.cap.(qe) <- Energy.add t.cap.(qe) d;
            t.cap.(qe lxor 1) <- Energy.sub t.cap.(qe lxor 1) d
          done;
          (* truncate the walk back to u and continue from there; the
             current vertex sits at path_vert.(!len) and must be unmarked
             too *)
          for j = j0 + 1 to !len do
            pos.(path_vert.(j)) <- -1
          done;
          len := j0;
          w := u
        end
        else begin
          path_edge.(!len) <- pe;
          incr len;
          if u <> sink && u <> source then begin
            pos.(u) <- !len;
            path_vert.(!len) <- u
          end;
          w := u
        end
      end
    done;
    (* cancel the terminal walk together with [e] itself *)
    let bottleneck = ref need in
    for j = 0 to !len - 1 do
      let pe = path_edge.(j) in
      if t.cap.(pe lxor 1) < !bottleneck then bottleneck := t.cap.(pe lxor 1)
    done;
    let d = !bottleneck in
    for j = 0 to !len - 1 do
      let pe = path_edge.(j) in
      t.cap.(pe) <- Energy.add t.cap.(pe) d;
      t.cap.(pe lxor 1) <- Energy.sub t.cap.(pe lxor 1) d
    done;
    t.cap.(e) <- Energy.add t.cap.(e) d;
    t.cap.(e lxor 1) <- Energy.sub t.cap.(e lxor 1) d;
    if !terminal = far then drained := Energy.add !drained d;
    for j = 0 to !len - 1 do
      pos.(path_vert.(j)) <- -1
    done;
    pos.(start) <- -1
  done;
  !drained

(* Shared body of the two drains: validate every id first (nothing is
   touched when one is bad), then cancel each surplus and set every
   capacity.  The scan pointers are reset once per call, before the
   first cancellation. *)
let drain t ids c ~source ~sink ~backward ~fn =
  if c < 0 then invalid_arg (fn ^ ": negative capacity");
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n || source = sink
  then invalid_arg (fn ^ ": bad source/sink");
  let dst = t.dst and m = t.m in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    if id < 0 || id >= m || id land 1 <> 0 then
      invalid_arg (fn ^ ": bad edge id");
    if backward && dst.(id) <> sink then
      invalid_arg (fn ^ ": edge head is not the sink");
    if (not backward) && dst.(id lxor 1) <> source then
      invalid_arg (fn ^ ": edge tail is not the source")
  done;
  ensure_csr t;
  t.version <- t.version + 1;
  let cap = t.cap and initial_cap = t.initial_cap in
  let rewound = ref false in
  let drained = ref 0 in
  for k = 0 to Array.length ids - 1 do
    let id = ids.(k) in
    let f = flow t id in
    if f > c then begin
      if not !rewound then begin
        Array.blit t.adj_start 0 t.walk_ptr 0 t.n;
        rewound := true
      end;
      drained :=
        Energy.add !drained (cancel_surplus t id c ~source ~sink ~backward);
      cap.(id) <- Energy.sub c (flow t id)
    end
    else cap.(id) <- Energy.sub c f;
    initial_cap.(id / 2) <- c
  done;
  !drained

let drain_even_caps t ids c ~source ~sink =
  drain t ids c ~source ~sink ~backward:false ~fn:"Maxflow.drain_even_caps"

let drain_sink_caps t ids c ~source ~sink =
  drain t ids c ~source ~sink ~backward:true ~fn:"Maxflow.drain_sink_caps"

(* ------------------------------------------------------------------ *)
(* Cuts                                                               *)
(* ------------------------------------------------------------------ *)

let min_cut_into t ~source side =
  if Array.length side < t.n then
    invalid_arg "Maxflow.min_cut_into: side shorter than the vertex count";
  ensure_csr t;
  Array.fill side 0 t.n false;
  let q = t.queue in
  let adj = t.adj and adj_dst = t.adj_dst and adj_start = t.adj_start in
  let cap = t.cap in
  q.(0) <- source;
  side.(source) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    for i = adj_start.(v) to adj_start.(v + 1) - 1 do
      let w = adj_dst.(i) in
      if cap.(adj.(i)) > 0 && not side.(w) then begin
        side.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done

let capacity t id =
  if id < 0 || id >= t.m || id mod 2 <> 0 then
    invalid_arg "Maxflow.capacity: bad edge id";
  t.initial_cap.(id / 2)

let cut_capacity t side =
  ensure_csr t;
  let len = Array.length side in
  let adj = t.adj and adj_dst = t.adj_dst and adj_start = t.adj_start in
  let initial_cap = t.initial_cap in
  let total = ref 0 in
  for v = 0 to min len t.n - 1 do
    if side.(v) then
      for i = adj_start.(v) to adj_start.(v + 1) - 1 do
        let e = adj.(i) in
        let w = adj_dst.(i) in
        if e land 1 = 0 && not (w < len && side.(w)) then
          total := Energy.add !total initial_cap.(e / 2)
      done
  done;
  !total
