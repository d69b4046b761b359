(* Callers of the fixture tree's lib/ interfaces: a qualified reference
   from bin/ keeps an export alive. *)

let () =
  ignore (Dead_export.from_bin 1);
  Pool.run (fun i -> ignore (Unsafe_array_pass.get [| i |] 0));
  Locking_pass.bump ();
  ignore Missing_mli_pass.answer;
  Print_pass.announce stdout (Print_pass.describe 1);
  Print_pass.pp Format.std_formatter 2;
  Print_fail.announce "x";
  Print_fail.report 3
