(** Finite-support demand functions [d : Z^l -> N].

    In the paper every job is a unit request, so [d(x)] is the number of
    jobs arriving at [x] (§1.3).  A demand map stores the finite support
    explicitly; all positions outside have demand 0.

    It is two parallel arrays, the points strictly increasing by
    [Point.compare] and their positive values.  {!value} is a binary
    search; {!dim}, {!support_size} and {!is_empty} are O(1); the other
    readers walk the arrays once in point order, {!equal} with no
    allocation. *)

type t

val empty : int -> t
(** [empty l] is the zero demand on [Z^l]. *)

val dim : t -> int

val add : t -> Point.t -> int -> t
(** [add t x k] increases [d(x)] by [k >= 0]; O(support).
    @raise Invalid_argument if [k < 0] or the dimension of [x] differs.
    @raise Energy.Overflow if [d(x) + k] does not fit in an [int]. *)

val remove : t -> Point.t -> int -> t
(** [remove t x k] decreases [d(x)] by [k >= 0]; the binding is dropped
    when it reaches 0, so {!support} stays strictly positive; O(support).
    @raise Invalid_argument if [k < 0], if the dimension of [x] differs,
    or if the removal would drive [d(x)] below 0. *)

val of_rows : int -> Point.t array -> int array -> int -> t
(** [of_rows l points values n] has [values.(i)] at [points.(i)] for
    [i < n], rows on one point summed left to right.  Linear when the
    points strictly increase and the values are positive, else sorted.
    @raise Invalid_argument as {!add} does on a bad row, or if [l <= 0].
    @raise Energy.Overflow if a point's total does not fit in an [int]. *)

val of_alist : int -> (Point.t * int) list -> t
(** Builds a map from (position, demand) pairs, summing duplicates
    and raising as {!of_rows} does. *)

val of_jobs : int -> Point.t list -> t
(** Aggregates an arrival sequence of unit jobs (the [d(x) = Σ I(x,x_i)]
    of §1.3). *)

val value : t -> Point.t -> int

val support : t -> Point.t list
(** Positions with strictly positive demand, in lexicographic order. *)

val support_size : t -> int

val is_empty : t -> bool
(** Whether the support is empty: [total t = 0] in constant time, with no
    sum to overflow. *)

val total : t -> int
(** [Σ_x d(x)].
    @raise Energy.Overflow if the sum does not fit in an [int]. *)

val max_demand : t -> int
(** The paper's [D]; 0 for empty demand. *)

val bounding_box : t -> Box.t option
(** Smallest box containing the support; [None] when empty. *)

val equal : t -> t -> bool
(** Same dimension and the same demand at every position: one walk of
    both arrays. *)

val fold : t -> init:'a -> f:('a -> Point.t -> int -> 'a) -> 'a

val iter : t -> (Point.t -> int -> unit) -> unit

val pp : Format.formatter -> t -> unit
