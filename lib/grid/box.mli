(** Axis-aligned finite boxes of [Z^l].

    The paper works on the infinite grid; the implementation works inside a
    finite window that is provably large enough for the computation at hand
    (see DESIGN.md §2).  A box is the product of the integer intervals
    [\[lo.(i), hi.(i)\]], and doubles as the representation of the
    [⌈ω⌉]-cubes used throughout Chapters 2 and 3. *)

type t = private { lo : Point.t; hi : Point.t }

val make : lo:Point.t -> hi:Point.t -> t
(** Requires matching dimensions and [lo.(i) <= hi.(i)] for all [i]. *)

val of_side : dim:int -> lo:Point.t -> side:int -> t
(** The [side^dim] cube whose smallest corner is [lo]. *)

val cube_at_origin : dim:int -> side:int -> t

val hull : Point.t list -> t option
(** The smallest box containing every point; [None] for no points. *)

val dim : t -> int

val side : t -> int -> int
(** Number of lattice points along axis [i]. *)

val volume : t -> int
(** Number of lattice points in the box.  Raises [Energy.Overflow] when
    it does not fit in an [int]. *)

val mem : t -> Point.t -> bool

val clamp : t -> Point.t -> Point.t
(** Nearest point of the box in L1 (coordinate-wise clamp). *)

val l1_dist_to : t -> Point.t -> int
(** L1 distance from a point to the box (0 if inside). *)

val index : t -> Point.t -> int
(** Row-major rank of a member point, in [\[0, volume)].  Raises
    [Invalid_argument] if the point is outside. *)

val point_of_index : t -> int -> Point.t
(** Inverse of [index]. *)

val iter : t -> (Point.t -> unit) -> unit
(** Row-major iteration over all lattice points. *)

val points : t -> Point.t list

val dilate : t -> int -> t
(** [dilate b r] grows every face by [r]: the bounding box of [N_r(b)].
    Note this is the bounding box, not the L1 neighborhood itself. *)

val intersect : t -> t -> t option

val tiled : t -> side:int -> t
(** The box anchored at [lo] whose sides are the least multiples of
    [side] that cover the given box: the window that {!partition_cubes}
    tiles by full [side]-cubes only, as the headcount argument of
    Corollary 2.2.7 needs. *)

val partition_cubes : t -> side:int -> t list
(** Tiles the box by [side]-cubes anchored at [lo] (the partition of
    Lemma 2.2.5 / §3.2 of the paper); boundary tiles are cropped to the
    box.  Raises [Energy.Overflow] when the number of tiles does not fit
    in an [int]. *)

val containing_cube : t -> side:int -> Point.t -> t
(** The tile of [partition_cubes] containing the given member point. *)
