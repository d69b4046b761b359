(** Monotone search for the least value a predicate accepts.

    Every search assumes [ok] is monotone: once it accepts a value, it
    accepts every larger one.  {!double} finds an accepted upper end by
    doubling, and {!halve} shrinks a bracket around the threshold.  The
    library's capacity searches (the online strategies' minimal
    capacities, the transfer and breakdown bounds, the closed forms of
    §2.1) all run through these two loops, so each one's probe sequence
    is fixed here. *)

val double :
  ?cap:float -> ?attempts:int -> start:float -> (float -> bool) -> float option
(** [double ~start ok] probes [start], [2·start], [4·start], ... and
    returns the first value [ok] accepts.  It gives up with [None] after
    [attempts] rejected probes (default: no limit), or on reaching a
    value above [cap] (default: [infinity]), which it does not probe. *)

val halve :
  ?tol:float -> ?rel:float -> lo:float -> hi:float -> (float -> bool) -> float
(** [halve ~lo ~hi ok] bisects [[lo, hi]], taking [ok hi] as given: an
    accepted midpoint becomes the new [hi], a rejected one the new [lo].
    It stops when [hi - lo <= tol + rel·(1 + hi)] (both default to 0) and
    returns [hi], or when the midpoint is no longer strictly inside the
    bracket (the floats between [lo] and [hi] are used up) and returns
    the midpoint. *)

val least :
  ?tol:float -> ?rel:float -> start:float -> attempts:int -> (float -> bool) ->
  float
(** {!double} from [start], then {!halve} from [lo = 0].  When doubling
    gives up, the next, unprobed doubling [start·2^attempts] is taken as
    the upper end. *)
