(* [helper] is hidden by the interface, so it is no export at all. *)
let helper x = x + 1

let dead x = helper x
let test_only x = dead x
let from_bin x = helper (helper x)
let waived = 0

module Nested = struct
  let used = 1
  let unused = 2
end
