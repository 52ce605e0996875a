type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }
let of_int seed = create (Int64.of_int seed)
let copy t = { state = t.state }

(* SplitMix64 output function: mix the incremented state through two
   xor-shift-multiply rounds. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  (* Mix again with a distinct constant so split streams do not overlap the
     parent stream even for adjacent seeds. *)
  { state = mix64 (Int64.logxor seed 0xD1B54A32D192ED03L) }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec go () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.(sub (sub r v) (sub bound64 1L)) < 0L then go () else Int64.to_int v
  in
  go ()

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits -> [0,1), scaled. *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let lognormal_mean_cv t ~mean ~cv =
  if cv <= 0.0 then mean
  else begin
    let sigma2 = log (1.0 +. (cv *. cv)) in
    let mu = log mean -. (sigma2 /. 2.0) in
    lognormal t ~mu ~sigma:(sqrt sigma2)
  end

(* Zipf sampling by inverse CDF over precomputed cumulative weights. The
   table is memoized on (n, s) since workload generators draw many samples
   from one distribution. *)
let zipf_tables : (int * float, float array) Hashtbl.t = Hashtbl.create 7

let zipf_cdf n s =
  match Hashtbl.find_opt zipf_tables (n, s) with
  | Some cdf -> cdf
  | None ->
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 1 to n do
      acc := !acc +. (1.0 /. (Float.of_int k ** s));
      cdf.(k - 1) <- !acc
    done;
    let total = !acc in
    for k = 0 to n - 1 do
      cdf.(k) <- cdf.(k) /. total
    done;
    Hashtbl.replace zipf_tables (n, s) cdf;
    cdf

let zipf t ~n ~s =
  assert (n >= 1);
  if n = 1 then 1
  else begin
    let cdf = zipf_cdf n s in
    let u = float t 1.0 in
    (* Binary search for the first index with cdf >= u. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
  end

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
