(* Under a fixtures directory, so not a caller: [Dead_export.dead] stays
   dead. *)

let () = ignore (Dead_export.dead 0)
