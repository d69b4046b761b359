(* The cache is a plain int-keyed hashtable from digest to entries plus
   a FIFO ring of live digests for eviction.  All structural comparison
   is explicit ([Demand_map.equal]), never the polymorphic `=`. *)

type key = {
  k_digest : int;
  k_op : string; (* canonical op tag, radius baked in for lp_value *)
  k_demand : Demand_map.t;
}

let op_tag : Protocol.op -> string = function
  | Protocol.Omega_star -> "omega_star"
  | Protocol.Witness -> "witness"
  | Protocol.Lp_value r -> "lp_value:" ^ string_of_int r
  | Protocol.Ping | Protocol.Shutdown ->
      invalid_arg "Qcache.key_with_digest: control ops are never cached"
  | Protocol.Session_add _ | Protocol.Session_remove _ | Protocol.Session_query
    ->
      invalid_arg "Qcache.key_with_digest: session ops key through their snapshot"

let key_with_digest ~digest ~op demand =
  { k_digest = digest; k_op = op_tag op; k_demand = demand }

let key_equal a b =
  a.k_digest = b.k_digest && String.equal a.k_op b.k_op
  && Demand_map.equal a.k_demand b.k_demand

let equal = key_equal

type 'v entry = { e_key : key; mutable e_value : 'v }

type 'v t = {
  table : (int, 'v entry list) Hashtbl.t;
  fifo : key Queue.t;
  limit : int;
  mutable live : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Qcache.create: capacity must be positive";
  { table = Hashtbl.create (min capacity 1024); fifo = Queue.create (); limit = capacity; live = 0 }

let bucket t digest = Option.value ~default:[] (Hashtbl.find_opt t.table digest)

let find t k =
  List.find_map
    (fun e -> if key_equal e.e_key k then Some e.e_value else None)
    (bucket t k.k_digest)

let remove t k =
  match List.partition (fun e -> key_equal e.e_key k) (bucket t k.k_digest) with
  | [], _ -> ()
  | _dead, [] ->
      Hashtbl.remove t.table k.k_digest;
      t.live <- t.live - 1
  | _dead, alive ->
      Hashtbl.replace t.table k.k_digest alive;
      t.live <- t.live - 1

let add t k v =
  match
    List.find_opt (fun e -> key_equal e.e_key k) (bucket t k.k_digest)
  with
  | Some e -> e.e_value <- v
  | None ->
      if t.live >= t.limit then remove t (Queue.pop t.fifo);
      Hashtbl.replace t.table k.k_digest ({ e_key = k; e_value = v } :: bucket t k.k_digest);
      Queue.push k t.fifo;
      t.live <- t.live + 1

let size t = t.live
