let m_lp_calls = Metrics.counter "oracle.lp_calls"
let m_radius_brackets = Metrics.counter "oracle.radius_brackets"
let m_omega_star = Metrics.timer "oracle.omega_star"
let m_session_events = Metrics.counter "oracle.session_events"
let m_session_queries = Metrics.counter "oracle.session_queries"
let m_session_latency = Metrics.histogram "oracle.session_latency_ns"

(* Incremental transport-instance builder.  Suppliers are the grid points
   within the current radius of the demand support; rather than re-running
   the all-pairs L1 scan at every radius, the builder keeps a BFS frontier
   over the support and, per radius step, registers only the new shell of
   suppliers and adds only the links at exactly the new distance (by
   enumerating each demand's L1 sphere).  The link set at radius m is a
   strict prefix of the set at radius m+1, so one builder serves the whole
   bracket scan of [omega_star]. *)
type builder = {
  b_support : Point.t array;
  b_inst : Transport.t;
  b_frontier : Ball.frontier;
  b_index : int Point.Tbl.t; (* supplier point -> supplier index *)
  mutable b_radius : int;
}

let builder_create dm =
  let support = Array.of_list (Demand_map.support dm) in
  let inst = Transport.create ~n_suppliers:0 ~n_demands:(Array.length support) in
  Array.iteri (fun j p -> Transport.set_demand inst j (Demand_map.value dm p)) support;
  let fr = Ball.frontier (Array.to_list support) in
  let index = Point.Tbl.create (Array.length support) in
  List.iter
    (fun p -> Point.Tbl.add index p (Transport.add_supplier inst))
    (Ball.frontier_shell fr);
  (* Radius 0: every demand site is served by the supplier at its own
     position.  The support has no duplicates, so the frontier's shell is
     the support in order and registered [support.(j)] as supplier [j]. *)
  for j = 0 to Array.length support - 1 do
    Transport.add_link inst ~supplier:j ~demand:j
  done;
  { b_support = support; b_inst = inst; b_frontier = fr; b_index = index; b_radius = 0 }

(* Links demand site [j] at [p] to every registered supplier at L1
   distance [lo] to [hi] from it, sphere by sphere. *)
let link_site b j p ~lo ~hi =
  for k = lo to hi do
    Ball.iter_sphere ~center:p ~radius:k (fun q ->
        match Point.Tbl.find_opt b.b_index q with
        | Some i -> Transport.add_link b.b_inst ~supplier:i ~demand:j
        | None -> ())
  done

let builder_extend b =
  (* New suppliers first, so shell points at exactly the new distance from
     some demand are linkable below. *)
  let shell = Ball.expand b.b_frontier in
  List.iter
    (fun p -> Point.Tbl.add b.b_index p (Transport.add_supplier b.b_inst))
    shell;
  let r = b.b_radius + 1 in
  b.b_radius <- r;
  (* Link delta: the pairs at L1 distance exactly r.  Every such supplier
     is already registered (its distance to the support set is <= r). *)
  Array.iteri (fun j p -> link_site b j p ~lo:r ~hi:r) b.b_support

let builder_to_radius b radius =
  while b.b_radius < radius do
    builder_extend b
  done

let builder_at dm ~radius =
  let b = builder_create dm in
  builder_to_radius b radius;
  b

let lp_value_of_inst inst =
  Metrics.incr m_lp_calls;
  match Transport.min_uniform_supply inst with
  | Some v -> v
  | None ->
      (* Impossible: every demand site is its own supplier at radius >= 0. *)
      assert false

let lp_value ~radius dm =
  if radius < 0 then invalid_arg "Oracle.lp_value: negative radius";
  if Demand_map.total dm = 0 then begin
    Metrics.incr m_lp_calls;
    0.0
  end
  else lp_value_of_inst (builder_at dm ~radius).b_inst

(* The bracket scan on a non-empty demand, with [solve m] the value of
   program (2.1) at radius m >= 1.  At radius 0 a site is served only
   by the supplier at its own position (N_0(T) = T), so by Lemma 2.2.2
   the value is max_x d(x), at least 1: bracket 0 never holds ω*.  The
   scan only asks whether bracket 0's value is below 1, so 1.0 stands in
   for it, without a fold over the demand. *)
let scan_brackets solve =
  Omega.scan_brackets (fun m -> if m = 0 then 1.0 else solve m)

(* The bracket scan of [scan] and [tight_set]; [after ()] runs once each
   bracket is solved.  In bracket m the admissible radius is m and the
   minimal capacity is the LP value of [inst] grown to radius m.  The
   instance carries radius m into bracket m+1 as a delta, and the
   transport's cached Paramflow sweep carries its flow along: each lp
   call costs one warm re-sweep, not a fresh search. *)
let scan_with inst ~grow ~after =
  Metrics.time m_omega_star (fun () ->
      scan_brackets (fun m ->
          Metrics.incr m_radius_brackets;
          grow m;
          let v = lp_value_of_inst inst in
          after ();
          v))

let scan inst ~grow = scan_with inst ~grow ~after:ignore

let tight_set inst ~grow =
  (* The binding sites of the last two solved brackets. *)
  let prev = ref [] and last = ref [] in
  let star =
    scan_with inst ~grow ~after:(fun () ->
        prev := !last;
        last := Transport.binding_demands inst)
  in
  (* ω* strictly inside [m, m+1) is bracket m's LP value; ω* = m >= 1 is
     bracket m's floor, and bracket m − 1, infeasible below m, holds the
     set.  For ω* = 1 that is bracket 0, which the scan did not solve:
     at radius 0 each site is its own only supplier, so its binding cut
     is read off the demand values. *)
  if star > Float.floor star then !last
  else if star > 1.0 then !prev
  else
    Transport.self_served_binding
      (Array.init (Transport.n_demands inst) (Transport.demand inst))

let omega_star dm =
  if Demand_map.total dm = 0 then 0.0
  else
    let b = builder_create dm in
    scan b.b_inst ~grow:(builder_to_radius b)

let witness dm =
  if Demand_map.total dm = 0 then None
  else begin
    let b = builder_create dm in
    let set = tight_set b.b_inst ~grow:(builder_to_radius b) in
    let points = List.map (fun j -> b.b_support.(j)) set in
    let total =
      List.fold_left (fun acc p -> acc + Demand_map.value dm p) 0 points
    in
    Some (points, Omega.of_points points ~total)
  end

(* ------------------------------------------------------------------ *)
(* Streaming sessions: incremental ω* under job arrival / retirement  *)
(* ------------------------------------------------------------------ *)

module Session = struct
  (* One persistent bracket per integer radius [m >= 1] the scan has
     ever visited (bracket 0 is never solved): a frozen-radius
     builder (its transport holds exactly the links at distance <= m)
     plus a demand-site index.  A job delta touches every live bracket
     in O(1) amortized — a sink-cap patch on the cached parametric
     arena — except when the job lands on a
     position the bracket has never seen, which appends a demand site,
     absorbs the new ball of suppliers into the frozen frontier
     ({!Ball.absorb}) and links it by sphere enumeration, exactly the
     radius-scan construction.  Sites whose demand returns to 0 stay in
     the arena with a zero-capacity sink edge: they carry no flow and
     shift no cut, so every bracket value — and therefore ω* — is
     bit-identical to a from-scratch recomputation on the live demand. *)
  type bracket = { bk : builder; bk_dindex : int Point.Tbl.t }

  type t = {
    mutable s_dm : Demand_map.t;
    mutable s_brackets : bracket array; (* index = bracket radius − 1 *)
    mutable s_value : float; (* cached ω*; valid when not dirty *)
    mutable s_dirty : bool;
  }

  let create dm = { s_dm = dm; s_brackets = [||]; s_value = 0.0; s_dirty = true }

  let demand s = s.s_dm

  let make_bracket dm radius =
    let b = builder_at dm ~radius in
    let dindex = Point.Tbl.create 64 in
    Array.iteri (fun j p -> Point.Tbl.add dindex p j) b.b_support;
    { bk = b; bk_dindex = dindex }

  let bracket s m =
    while Array.length s.s_brackets < m do
      let bk = make_bracket s.s_dm (Array.length s.s_brackets + 1) in
      s.s_brackets <- Array.append s.s_brackets [| bk |]
    done;
    s.s_brackets.(m - 1)

  (* Propagate [d(p) = v] into one bracket.  The radius is the bracket's
     frozen builder radius. *)
  let bracket_set bk v p =
    let inst = bk.bk.b_inst in
    match Point.Tbl.find_opt bk.bk_dindex p with
    | Some j -> Transport.set_demand inst j v
    | None ->
        let radius = bk.bk.b_radius in
        let j = Transport.add_demand inst in
        Point.Tbl.add bk.bk_dindex p j;
        (* Suppliers: the part of B_radius(p) the frontier has not
           reached yet.  [absorb] returns them and keeps the shell exact
           for any future extension. *)
        List.iter
          (fun q -> Point.Tbl.add bk.bk.b_index q (Transport.add_supplier inst))
          (Ball.absorb bk.bk.b_frontier p);
        (* Links: every supplier within distance <= radius of [p]; after
           the absorb every such point is registered. *)
        link_site bk.bk j p ~lo:0 ~hi:radius;
        Transport.set_demand inst j v

  let apply s p =
    let v = Demand_map.value s.s_dm p in
    Array.iter (fun bk -> bracket_set bk v p) s.s_brackets;
    Metrics.incr m_session_events;
    s.s_dirty <- true

  let add_job s p =
    if Point.dim p <> Demand_map.dim s.s_dm then
      invalid_arg "Oracle.Session.add_job: dimension mismatch";
    let p = Array.copy p in
    s.s_dm <- Demand_map.add s.s_dm p 1;
    apply s p

  let remove_job s p =
    (* raises Invalid_argument when no job lives at [p] *)
    s.s_dm <- Demand_map.remove s.s_dm p 1;
    apply s p

  let recompute s =
    if Demand_map.is_empty s.s_dm then 0.0
    else
      scan_brackets (fun m ->
          match Transport.min_uniform_supply (bracket s m).bk.b_inst with
          | Some v -> v
          | None ->
              (* Impossible: every live demand site links to itself. *)
              assert false)

  let omega_star s =
    if s.s_dirty then begin
      Metrics.incr m_session_queries;
      let t0 = Metrics.now_ns () in
      s.s_value <- recompute s;
      Metrics.observe m_session_latency (Metrics.now_ns () -. t0);
      s.s_dirty <- false
    end;
    s.s_value
end
