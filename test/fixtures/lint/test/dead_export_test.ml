(* A reference from test/ counts as a caller. *)

let () = ignore (Dead_export.test_only Dead_export.Nested.used)
