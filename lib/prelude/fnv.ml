(* FNV-1a over native ints.  The 64-bit constants are truncated to
   OCaml's 63-bit int by the `land max_int` at every step, which keeps
   digests identical across platforms (and positive, so they print as
   plain hex).  Ints are mixed one byte at a time — the classic FNV-1a
   octet loop — so nearby values diverge quickly. *)

let basis = Int64.to_int 0xcbf29ce484222325L land max_int
let prime = 0x100000001b3

let add_byte h b = ((h lxor (b land 0xff)) * prime) land max_int

(* The octet loop written out: the eight multiplies are one dependency
   chain either way, but the unrolled chain carries no loop counter. *)
let add_int h x =
  let h = add_byte h x in
  let h = add_byte h (x asr 8) in
  let h = add_byte h (x asr 16) in
  let h = add_byte h (x asr 24) in
  let h = add_byte h (x asr 32) in
  let h = add_byte h (x asr 40) in
  let h = add_byte h (x asr 48) in
  add_byte h (x asr 56)

let add_string h s =
  let h = ref h in
  String.iter (fun c -> h := add_byte !h (Char.code c)) s;
  add_int !h (String.length s)

let of_ints xs = List.fold_left add_int basis xs
