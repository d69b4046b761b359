(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.

   The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: without flambda every store to such a field boxes a
   fresh [int64], so each draw would allocate.  [int64] and [mix64] are
   inlined so the draw functions below keep the state unboxed. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling to avoid modulo bias. *)
    let mask = (1 lsl 30) - 1 in
    let limit = mask - (mask mod bound) in
    let v = ref (bits30 t land mask) in
    while !v >= limit do
      v := bits30 t land mask
    done;
    !v mod bound
  end else begin
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    v mod bound
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  (* Exact inversion: cheap because workload generators use modest [n]. *)
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let u = float t total in
  let rec scan i acc =
    if i = n - 1 then n
    else
      let acc = acc +. weights.(i) in
      if u < acc then i + 1 else scan (i + 1) acc
  in
  scan 0 0.0
