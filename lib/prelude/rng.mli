(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (workload generators, message
    delays, failure injection) draws from an explicit [Rng.t] so that runs
    are reproducible from a single integer seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state and good
    statistical quality. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal
    seeds yield identical streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in [\[1, n\]] from a Zipf distribution with
    exponent [s], by inversion on the exact normalizing constant.  Used by
    skewed workload generators. *)
