(* Order statistics for the benchmark's reports. Latency samples are
   sorted once and queried for several percentiles; run-to-run spread is
   computed the way Python's [statistics] module does, so the numbers in
   benchmark/README.md and BENCHMARK.json can be reproduced with
   [statistics.quantiles(values, n=4)]. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* [at s p]: the [p]-th percentile (0..100) of the sorted sample [s],
   interpolating linearly between closest ranks; [nan] when empty. *)
let at s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. Float.of_int (n - 1) in
    let i = Float.to_int (Float.floor r) in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((r -. Float.of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = at (sorted xs) 50.0

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

(* Mean of the middle half of the sample: a quarter of the values is
   dropped at each end, so a burst of outside interference that hits a
   few slices of a run does not move the run's figure, while the
   remaining values still average out sampling noise. *)
let iq_mean xs =
  let s = sorted xs in
  let n = Array.length s in
  let cut = n / 4 in
  mean (Array.sub s cut (n - (2 * cut)))

(* Quartiles by the "exclusive" method of [statistics.quantiles(xs, n=4)]:
   the i-th cut point sits at rank i(n+1)/4, clamped to the sample and
   interpolated between neighbours. Needs at least two values. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Pct.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. Float.of_int (4 - delta)) +. (s.(j) *. Float.of_int delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Distance between the first and third quartile as a share of the
   median: the steadiness figure BENCHMARK.json's bounds are held to. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* Largest minus smallest value as a share of the median. *)
let range_spread xs =
  let s = sorted xs in
  (s.(Array.length s - 1) -. s.(0)) /. Float.abs (at s 50.0)
