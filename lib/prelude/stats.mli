(** Small descriptive-statistics toolkit used by benchmarks and tests. *)

val min_max : float array -> float * float
(** Smallest and largest element.  Raises on an empty array. *)

val linear_fit : (float * float) array -> float * float * float
(** [linear_fit points] least-squares fit [y = a + b*x]; returns
    [(a, b, r2)] where [r2] is the coefficient of determination.  Used to
    check the linear-time claim for Algorithm 1 (experiment E6). *)

val loglog_slope : (float * float) array -> float
(** Slope of the least-squares line through [(log x, log y)]: the empirical
    polynomial exponent of a scaling series.  Points with non-positive
    coordinates are rejected. *)

val geometric_mean : float array -> float
(** Geometric mean of positive values; used for approximation-ratio
    summaries. *)
