(** Polymorphic binary min-heap: Dijkstra's frontier in {!Paths}.

    The ordering is supplied at creation; ties are broken by it alone, so
    clients needing stability must encode a sequence number in the
    element. *)

type 'a t

val create : compare:('a -> 'a -> int) -> unit -> 'a t

val size : _ t -> int

val is_empty : _ t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)
