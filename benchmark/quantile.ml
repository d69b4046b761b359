(* Order statistics over measured samples.  Nothing is interpolated
   except the median of an even count, so a reported p99 is always a
   latency some operation actually had. *)

let sorted xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

(* Nearest rank: the ⌈q·n⌉-th smallest sample of an ascending array, so
   p99 of 1..100 is 99.  The epsilon keeps q·n = 99.000000000000014 from
   rounding the rank up past an exact product. *)
let exact_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.exact: no samples";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.exact: q outside [0, 1]";
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let exact xs q = exact_sorted (sorted xs) q

(* The middle sample, or the mean of the two middle samples. *)
let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
