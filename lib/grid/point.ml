type t = int array

let dim = Array.length

(* The coordinate loops take the points as arguments rather than
   closing over them: a local closure would be allocated on every call,
   and every [Map]/[Set] operation on points makes several. *)
let rec equal_from (a : t) (b : t) n i = i = n || (a.(i) = b.(i) && equal_from a b n (i + 1))

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b && equal_from a b n 0

let rec compare_from (a : t) (b : t) n i =
  if i = n then 0
  else match Int.compare a.(i) b.(i) with 0 -> compare_from a b n (i + 1) | c -> c

(* Explicit lexicographic order (length first, then coordinates), matching
   what the polymorphic compare did on int arrays but without ever going
   through the polymorphic runtime path — the L1 bookkeeping of
   Thm 1.4.1/1.4.2 must not depend on representation tricks. *)
let compare_points (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b la 0

let compare = compare_points

let hash (a : t) =
  Array.fold_left (fun h x -> (h * 1000003) lxor (x * 2654435761)) 17 a
  land max_int

let check_same_dim a b =
  if Array.length a <> Array.length b then
    invalid_arg "Point: dimension mismatch"

let l1_dist a b =
  check_same_dim a b;
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + abs (a.(i) - b.(i))
  done;
  !acc

let add a b =
  check_same_dim a b;
  Array.init (Array.length a) (fun i -> a.(i) + b.(i))

let origin l = Array.make l 0

let neighbors p =
  let l = Array.length p in
  let out = ref [] in
  for i = 0 to l - 1 do
    let up = Array.copy p and down = Array.copy p in
    up.(i) <- up.(i) + 1;
    down.(i) <- down.(i) - 1;
    out := up :: down :: !out
  done;
  !out

let pp fmt p =
  Format.fprintf fmt "(%s)"
    (String.concat "," (Array.to_list (Array.map string_of_int p)))

let to_string p = Format.asprintf "%a" pp p

module Ord = struct
  type nonrec t = t

  let compare = compare_points
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Tbl = Hashtbl.Make (Hashed)
