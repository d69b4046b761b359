(** Two dead-export violations: [dead] and [Nested.unused]. *)

val dead : int -> int
(** Called only by dead_export.ml itself, which does not count. *)

val test_only : int -> int
(** Called from the tree's test/ directory, which counts. *)

val from_bin : int -> int
(** Called from the sibling bin/ tree. *)

(* Kept for a caller outside the repository. *)
(* lint: allow dead-export *)
val waived : int

module Nested : sig
  val used : int
  (** Referenced as [Dead_export.Nested.used]. *)

  val unused : int
  (** Dead one module level down. *)
end
