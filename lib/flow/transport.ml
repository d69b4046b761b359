let m_feasibility_checks = Metrics.counter "transport.feasibility_checks"
let m_breakpoint_lookups = Metrics.counter "transport.breakpoint_lookups"

(* The LP grid.  Supplies are resolved to multiples of [1/grid]:
   [min_uniform_supply] runs on demands multiplied by [grid] and reads
   off an integer level.  lcm(1..14), so the answer is exact whenever
   the optimal [|N(J)|] divides it, and otherwise the least grid level
   above the optimum. *)
let grid = 720720

(* Parametric state cached across [min_uniform_supply] queries: one
   {!Maxflow} arena plus a {!Paramflow} driver.  The arena uses its own
   vertex layout — source 0, sink 1, then demand and supplier vertices
   appended by [Maxflow.add_vertex] as the instance grows, with their ids
   recorded per site — so every kind of growth (suppliers from the
   oracle's radius scan, demand sites and demand values from streamed
   jobs) is a pure in-place extension or patch.
   Every demand site gets a sink edge at materialization time, capacity 0
   when its demand is 0, so a later demand change is a single-edge
   capacity patch: a raise keeps the routed flow, a lowering cancels the
   surplus via {!Maxflow.drain_sink_caps} — never an arena rebuild. *)
type pstate = {
  mutable p_gen : int; (* demands generation the arena's caps match *)
  p_net : Maxflow.t;
  pf : Paramflow.t;
  mutable p_suppliers : int; (* suppliers materialized in the arena *)
  mutable p_links : int; (* links materialized in the arena *)
  mutable p_src : int array; (* parametric edge id per supplier *)
  mutable p_sup_vertex : int array; (* arena vertex per supplier *)
  mutable p_demands : int; (* demand sites materialized in the arena *)
  mutable p_dem_vertex : int array; (* arena vertex per demand site *)
  mutable p_dem_edge : int array; (* sink edge id per demand site *)
  mutable p_dem_val : int array; (* demand value the sink cap encodes *)
  mutable p_link_edges : int array; (* arena edge id per link *)
  mutable p_inf : int; (* current "infinite" link capacity *)
}

type t = {
  mutable n_suppliers : int;
  mutable n_demands : int;
  mutable demands : int array;
  mutable links : int array; (* flattened pairs: 2k = supplier, 2k+1 = demand *)
  mutable n_links : int;
  mutable linked : bool array; (* demand j has at least one link *)
  mutable total : int; (* sum of the demands *)
  mutable unlinked : int; (* positive demands with no link *)
  mutable demands_gen : int; (* bumped by set_demand *)
  mutable last_set : int; (* the demand the last bump changed *)
  mutable pstate : pstate option;
}

let create ~n_suppliers ~n_demands =
  if n_suppliers < 0 || n_demands < 0 then
    invalid_arg "Transport.create: negative size";
  {
    n_suppliers;
    n_demands;
    demands = Array.make n_demands 0;
    links = [||];
    n_links = 0;
    linked = Array.make n_demands false;
    total = 0;
    unlinked = 0;
    demands_gen = 0;
    last_set = 0;
    pstate = None;
  }

let n_suppliers t = t.n_suppliers
let n_demands t = t.n_demands

let add_supplier t =
  let i = t.n_suppliers in
  t.n_suppliers <- i + 1;
  i

let add_demand t =
  let j = t.n_demands in
  t.n_demands <- j + 1;
  if Array.length t.demands < t.n_demands then begin
    let bigger = Array.make (max 16 (2 * t.n_demands)) 0 in
    Array.blit t.demands 0 bigger 0 j;
    t.demands <- bigger
  end;
  if Array.length t.linked < t.n_demands then begin
    let bigger = Array.make (max 16 (2 * t.n_demands)) false in
    Array.blit t.linked 0 bigger 0 j;
    t.linked <- bigger
  end;
  t.demands.(j) <- 0;
  t.linked.(j) <- false;
  j

let set_demand t j d =
  if d < 0 then invalid_arg "Transport.set_demand: negative demand";
  if j < 0 || j >= t.n_demands then
    invalid_arg "Transport.set_demand: demand out of range";
  let old = t.demands.(j) in
  if old <> d then begin
    t.total <- Energy.add (Energy.sub t.total old) d;
    if not t.linked.(j) then begin
      if old = 0 then t.unlinked <- t.unlinked + 1
      else if d = 0 then t.unlinked <- t.unlinked - 1
    end;
    t.demands.(j) <- d;
    t.demands_gen <- t.demands_gen + 1;
    t.last_set <- j
  end

let demand t j =
  if j < 0 || j >= t.n_demands then
    invalid_arg "Transport.demand: demand out of range";
  t.demands.(j)

let add_link t ~supplier ~demand =
  if supplier < 0 || supplier >= t.n_suppliers then
    invalid_arg "Transport.add_link: supplier out of range";
  if demand < 0 || demand >= t.n_demands then
    invalid_arg "Transport.add_link: demand out of range";
  if (2 * t.n_links) + 2 > Array.length t.links then begin
    let bigger = Array.make (max 16 (2 * Array.length t.links)) 0 in
    Array.blit t.links 0 bigger 0 (2 * t.n_links);
    t.links <- bigger
  end;
  t.links.(2 * t.n_links) <- supplier;
  t.links.((2 * t.n_links) + 1) <- demand;
  t.n_links <- t.n_links + 1;
  if (not t.linked.(demand)) && t.demands.(demand) > 0 then
    t.unlinked <- t.unlinked - 1;
  t.linked.(demand) <- true

let n_links t = t.n_links

let iter_links t f =
  for k = 0 to t.n_links - 1 do
    f ~supplier:t.links.(2 * k) ~demand:t.links.((2 * k) + 1)
  done

let total_demand t = t.total

(* Throw-away network of [max_served]: 0 = source, 1 = sink, suppliers
   at 2..2+S-1, demands after that.  Supplier [i] emits [supply i],
   demand [j] absorbs [d(j)], and every link carries the whole demand,
   so no link ever binds. *)
let max_served t ~supply =
  let supplier_vertex i = 2 + i and demand_vertex j = 2 + t.n_suppliers + j in
  let net = Maxflow.create (2 + t.n_suppliers + t.n_demands) in
  for i = 0 to t.n_suppliers - 1 do
    let cap = supply i in
    if cap > 0 then
      ignore (Maxflow.add_edge net ~src:0 ~dst:(supplier_vertex i) ~cap)
  done;
  let inf = max 1 (total_demand t) in
  iter_links t (fun ~supplier:i ~demand:j ->
      ignore
        (Maxflow.add_edge net ~src:(supplier_vertex i) ~dst:(demand_vertex j)
           ~cap:inf));
  for j = 0 to t.n_demands - 1 do
    if t.demands.(j) > 0 then
      ignore
        (Maxflow.add_edge net ~src:(demand_vertex j) ~dst:1 ~cap:t.demands.(j))
  done;
  Maxflow.max_flow net ~source:0 ~sink:1


let grow_int_array arr n =
  if Array.length arr >= n then arr
  else begin
    let bigger = Array.make (max 16 (max n (2 * Array.length arr))) 0 in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

(* Build or extend the cached parametric state.  Returns the state with
   all current demand sites, demand values, suppliers and links
   materialized.  Everything is an in-place delta: new demand sites and
   suppliers are appended ([Maxflow.add_vertex]), changed demand values
   patch their sink edge ([Paramflow.patch_sink_cap] — flow-preserving
   raise, or cancellation drain), link capacities are raised when the
   target outgrows the previous "infinity", and the driver is re-pointed
   with [Paramflow.grow]/[retarget] so the next solve is a warm re-sweep
   of the retained flow. *)
let ensure_pstate t ~target =
  let ps =
    match t.pstate with
    | Some ps -> ps
    | None ->
        let net = Maxflow.create 2 in
        let pf =
          Paramflow.create ~net ~source:0 ~sink:1 ~src_edges:[||] ~target:0
        in
        let ps =
          {
            p_gen = t.demands_gen;
            p_net = net;
            pf;
            p_suppliers = 0;
            p_links = 0;
            p_src = [||];
            p_sup_vertex = [||];
            p_demands = 0;
            p_dem_vertex = [||];
            p_dem_edge = [||];
            p_dem_val = [||];
            p_link_edges = [||];
            p_inf = 0;
          }
        in
        t.pstate <- Some ps;
        ps
  in
  (* 0. room for everything below, in one growth step per array: a
     vertex per demand site and supplier, an edge per site, supplier and
     link *)
  Maxflow.reserve ps.p_net
    ~vertices:(2 + t.n_demands + t.n_suppliers)
    ~edges:(t.n_demands + t.n_suppliers + t.n_links);
  (* 1. materialize new demand sites: a vertex plus a sink edge each,
     capacity 0 when the demand is 0 — later changes are patches *)
  if ps.p_demands < t.n_demands then begin
    ps.p_dem_vertex <- grow_int_array ps.p_dem_vertex t.n_demands;
    ps.p_dem_edge <- grow_int_array ps.p_dem_edge t.n_demands;
    ps.p_dem_val <- grow_int_array ps.p_dem_val t.n_demands;
    for j = ps.p_demands to t.n_demands - 1 do
      let v = Maxflow.add_vertex ps.p_net in
      ps.p_dem_vertex.(j) <- v;
      ps.p_dem_edge.(j) <-
        Maxflow.add_edge ps.p_net ~src:v ~dst:1
          ~cap:(Energy.mul t.demands.(j) grid);
      ps.p_dem_val.(j) <- t.demands.(j)
    done;
    ps.p_demands <- t.n_demands
  end;
  (* 2. patch demand values changed since the arena's caps last matched;
     after a single change only [t.last_set] can differ *)
  if ps.p_gen <> t.demands_gen then begin
    let single = t.demands_gen = ps.p_gen + 1 in
    let first = if single then t.last_set else 0
    and last = if single then t.last_set else ps.p_demands - 1 in
    for j = first to last do
      if ps.p_dem_val.(j) <> t.demands.(j) then begin
        Paramflow.patch_sink_cap ps.pf ps.p_dem_edge.(j)
          (Energy.mul t.demands.(j) grid);
        ps.p_dem_val.(j) <- t.demands.(j)
      end
    done;
    ps.p_gen <- t.demands_gen
  end;
  (* 3. materialize new suppliers *)
  let grew = ps.p_suppliers < t.n_suppliers || ps.p_links < t.n_links in
  if ps.p_suppliers < t.n_suppliers then begin
    ps.p_src <- grow_int_array ps.p_src t.n_suppliers;
    ps.p_sup_vertex <- grow_int_array ps.p_sup_vertex t.n_suppliers;
    for i = ps.p_suppliers to t.n_suppliers - 1 do
      let v = Maxflow.add_vertex ps.p_net in
      ps.p_sup_vertex.(i) <- v;
      ps.p_src.(i) <- Maxflow.add_edge ps.p_net ~src:0 ~dst:v ~cap:0
    done;
    ps.p_suppliers <- t.n_suppliers
  end;
  (* 4. "infinite" link capacity: never the binding constraint at any
     level.  Raising is flow-preserving, so when the target outgrows the
     previous infinity the existing links are patched in place. *)
  if target > ps.p_inf then begin
    if ps.p_links > 0 then
      Maxflow.set_even_caps ps.p_net
        (Array.sub ps.p_link_edges 0 ps.p_links)
        (max 1 target);
    ps.p_inf <- max 1 target
  end;
  (* 5. materialize new links *)
  if ps.p_links < t.n_links then begin
    ps.p_link_edges <- grow_int_array ps.p_link_edges t.n_links;
    for k = ps.p_links to t.n_links - 1 do
      let i = t.links.(2 * k) and j = t.links.((2 * k) + 1) in
      ps.p_link_edges.(k) <-
        Maxflow.add_edge ps.p_net ~src:ps.p_sup_vertex.(i)
          ~dst:ps.p_dem_vertex.(j) ~cap:ps.p_inf
    done;
    ps.p_links <- t.n_links
  end;
  (* 6. re-point the driver *)
  if grew then
    Paramflow.grow ps.pf ~src_edges:(Array.sub ps.p_src 0 ps.p_suppliers);
  if Paramflow.target ps.pf <> target then Paramflow.retarget ps.pf ~target;
  ps

let min_uniform_supply t =
  let total = total_demand t in
  if total = 0 then
    (* Empty (or all-zero-demand) instance: no arena, no probe — the
       answer is 0 supply regardless of suppliers and links. *)
    Some 0.0
  else if t.unlinked > 0 then None
  else begin
    (* Scaled problem: demands d*grid, integer uniform capacity u; answer
       u/grid.  The cached parametric driver (GGT-style: one monotone
       push-relabel sweep) answers repeated queries as lookups, and the
       oracle's radius scan only extends the arena — warm flow kept —
       instead of rebuilding it. *)
    let target = Energy.mul total grid in
    let ps = ensure_pstate t ~target in
    if Paramflow.solved ps.pf then Metrics.incr m_breakpoint_lookups
    else Metrics.incr m_feasibility_checks;
    match Paramflow.solve ps.pf with
    | Some u -> Some (float_of_int u /. float_of_int grid)
    | None -> None
  end

(* The cut that set the answer has a positive bound, so it crosses no
   link (each carries at least the target): every supplier linked to a
   demand outside it is outside too, so the demands outside form a set J
   with ⌈grid·D(J)/|N(J)|⌉ equal to the answer level. *)
let binding_demands t =
  match t.pstate with
  | Some ps
    when ps.p_gen = t.demands_gen && ps.p_demands = t.n_demands
         && ps.p_suppliers = t.n_suppliers && ps.p_links = t.n_links ->
      let side = Paramflow.binding_side ps.pf in
      let len = Array.length side in
      let out = ref [] in
      for j = t.n_demands - 1 downto 0 do
        let v = ps.p_dem_vertex.(j) in
        if t.demands.(j) > 0 && not (v < len && side.(v)) then out := j :: !out
      done;
      !out
  | _ ->
      invalid_arg "Transport.binding_demands: no solve of the current instance"

(* When every demand has a supplier of its own and no other link, the
   arena is disjoint source→supplier→demand→sink paths and F(u) is
   Σ_j min(u, grid·d(j)), so the Paramflow sweep is arithmetic.  It
   starts at the trivial cut's bound ⌈grid·D/S⌉ over the S suppliers.
   A level u below grid·max d routes less than the target, and the
   minimal min cut of its flow leaves outside exactly the demands
   J = {j : grid·d(j) >= u} with their suppliers, so Newton jumps to
   ⌈grid·D(J)/|J|⌉.  The cut that bounds the answer is the J of the
   last level below grid·max d, or {source} when the first level already
   routes the target: then every positive demand is outside.  With at
   most [grid] demands that set is exactly the demands of largest value,
   since its mean rounds up to grid·max d. *)
let self_served_binding d =
  let total = Array.fold_left Energy.add 0 d in
  if total = 0 then invalid_arg "Transport.self_served_binding: zero demand";
  let scaled j = Energy.mul grid d.(j) in
  let top = ref 0 in
  Array.iteri (fun j _ -> if scaled j > !top then top := scaled j) d;
  (* ⌈grid·sum/count⌉, with sum >= 1 *)
  let level sum count = ((Energy.mul grid sum - 1) / count) + 1 in
  let outside u =
    List.filter (fun j -> scaled j >= u) (List.init (Array.length d) Fun.id)
  in
  let rec sweep u tight =
    if u >= !top then tight
    else begin
      let j_set = outside u in
      let sum = List.fold_left (fun acc j -> Energy.add acc d.(j)) 0 j_set in
      sweep (level sum (List.length j_set)) j_set
    end
  in
  sweep (level total (Array.length d)) (outside 1)
