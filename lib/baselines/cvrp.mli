(** Classical central-depot CVRP heuristics — the comparison point the
    thesis reviews in §1.1 (Clarke–Wright savings [4]) — adapted to the
    grid/L1 setting.

    A route starts at the depot, visits customers, and returns.  Routes
    respect a service-capacity bound [q] (total demand per route).  The
    energy of a route under the thesis's objective is its travel cost plus
    the demand it serves — directly comparable to the per-vehicle energy
    [W] of CMVRP. *)

type customer = { location : Point.t; amount : int }

type route = { stops : Point.t list (** visit order, depot excluded *) }

type solution = {
  depot : Point.t;
  routes : route list;
  capacity : int;  (** the service capacity [q] the routes respect *)
}

val route_demand : Demand_map.t -> route -> int

val total_travel : solution -> int

val max_route_energy : dm:Demand_map.t -> solution -> int
(** The fleet's peak per-vehicle energy: what the depot's vehicles would
    each need as capacity [W]. *)

val clarke_wright : dm:Demand_map.t -> depot:Point.t -> capacity:int -> solution
(** Savings algorithm: start with one round trip per customer, repeatedly
    merge the route pair with the best positive saving
    [d(0,i) + d(0,j) - d(i,j)] subject to the capacity bound, linking only
    at route endpoints. *)

val validate : dm:Demand_map.t -> solution -> (unit, string) result
(** Every customer visited exactly once across routes; every route within
    the service capacity. *)

val centroid : Demand_map.t -> Point.t
(** Demand-weighted centroid (rounded) — the natural depot placement for
    the comparisons. *)
