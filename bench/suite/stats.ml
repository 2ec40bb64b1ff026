(* Order statistics over rep samples.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] default
   ("exclusive") method, including its extrapolation on tiny samples, so
   a reader who recomputes them from the raw samples in a result file
   gets the same numbers. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [(q1, q3)]. One sample gives [(x, x)]. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then invalid_arg "Stats.quartiles: no samples"
  else if len = 1 then (a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
