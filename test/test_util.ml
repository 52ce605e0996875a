(* Unit and property tests for grid_util. *)

module Rng = Grid_util.Rng
module Stats = Grid_util.Stats
module Bitset = Grid_util.Bitset
module Text_table = Grid_util.Text_table
module Ids = Grid_util.Ids

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg ~eps a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.of_int 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_diverges () =
  let a = Rng.of_int 11 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 3)

let test_rng_int_bounds () =
  let r = Rng.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_int_in () =
  let r = Rng.of_int 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r 10 14 in
    Alcotest.(check bool) "in [10,14]" true (v >= 10 && v <= 14);
    seen.(v - 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let r = Rng.of_int 17 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_mean () =
  let r = Rng.of_int 23 in
  let acc = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add acc (Rng.float r 1.0)
  done;
  check_floatish "uniform mean ~0.5" ~eps:0.01 0.5 (Stats.mean acc)

let test_rng_exponential_mean () =
  let r = Rng.of_int 29 in
  let acc = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add acc (Rng.exponential r ~mean:3.0)
  done;
  check_floatish "exponential mean ~3" ~eps:0.1 3.0 (Stats.mean acc)

let test_rng_normal_moments () =
  let r = Rng.of_int 31 in
  let acc = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add acc (Rng.normal r ~mu:10.0 ~sigma:2.0)
  done;
  check_floatish "normal mean" ~eps:0.05 10.0 (Stats.mean acc);
  check_floatish "normal sd" ~eps:0.05 2.0 (Stats.stddev acc)

let test_rng_lognormal_mean_cv () =
  let r = Rng.of_int 37 in
  let acc = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add acc (Rng.lognormal_mean_cv r ~mean:45.0 ~cv:0.1)
  done;
  check_floatish "lognormal real-space mean" ~eps:0.3 45.0 (Stats.mean acc);
  check_floatish "lognormal real-space cv" ~eps:0.01 0.1
    (Stats.stddev acc /. Stats.mean acc)

let test_rng_lognormal_zero_cv () =
  let r = Rng.of_int 41 in
  check_float "cv=0 is the mean" 45.0 (Rng.lognormal_mean_cv r ~mean:45.0 ~cv:0.0)

let test_rng_zipf_bounds_and_skew () =
  let r = Rng.of_int 43 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Rng.zipf r ~n:10 ~s:1.2 in
    Alcotest.(check bool) "rank in [1,10]" true (v >= 1 && v <= 10);
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(4))

let test_rng_shuffle_permutes () =
  let r = Rng.of_int 47 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 Fun.id) sorted

let test_rng_permutation () =
  let r = Rng.of_int 53 in
  let p = Rng.permutation r 15 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 15 Fun.id) sorted

let test_rng_pick_singleton () =
  let r = Rng.of_int 59 in
  Alcotest.(check int) "pick singleton" 42 (Rng.pick r [| 42 |]);
  Alcotest.(check int) "pick_list singleton" 42 (Rng.pick_list r [ 42 ])

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_variance () =
  let acc = Stats.create () in
  List.iter (Stats.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean acc);
  check_floatish "sample variance" ~eps:1e-9 4.571428571428571 (Stats.variance acc);
  check_float "min" 2.0 (Stats.min_value acc);
  check_float "max" 9.0 (Stats.max_value acc)

let test_stats_empty () =
  let acc = Stats.create () in
  Alcotest.(check bool) "mean of empty is nan" true (Float.is_nan (Stats.mean acc));
  check_float "variance of empty" 0.0 (Stats.variance acc);
  check_float "ci of empty" 0.0 (Stats.confidence_interval acc)

let test_stats_merge () =
  let xs = List.init 50 (fun i -> Float.of_int i *. 0.7) in
  let ys = List.init 37 (fun i -> 100.0 -. Float.of_int i) in
  let all = Stats.create () in
  List.iter (Stats.add all) (xs @ ys);
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  let merged = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count all) (Stats.count merged);
  check_floatish "mean" ~eps:1e-9 (Stats.mean all) (Stats.mean merged);
  check_floatish "variance" ~eps:1e-6 (Stats.variance all) (Stats.variance merged)

let test_stats_merge_empty () =
  let a = Stats.create () in
  let b = Stats.create () in
  Stats.add b 5.0;
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 1 (Stats.count m);
  check_float "mean" 5.0 (Stats.mean m)

let test_t_quantile_table () =
  check_floatish "df=1 99%" ~eps:1e-3 63.657 (Stats.t_quantile ~confidence:0.99 ~df:1);
  check_floatish "df=19 99% interpolated" ~eps:0.02 2.861
    (Stats.t_quantile ~confidence:0.99 ~df:19);
  check_floatish "df=10 95%" ~eps:1e-3 2.228 (Stats.t_quantile ~confidence:0.95 ~df:10);
  check_floatish "large df approaches normal" ~eps:1e-3 2.5758
    (Stats.t_quantile ~confidence:0.99 ~df:1000)

let test_t_quantile_invalid () =
  Alcotest.check_raises "bad confidence" (Invalid_argument
    "Stats: confidence must be 0.90, 0.95 or 0.99") (fun () ->
      ignore (Stats.t_quantile ~confidence:0.5 ~df:10))

let test_confidence_interval () =
  let acc = Stats.create () in
  List.iter (Stats.add acc) (List.init 20 (fun i -> Float.of_int i));
  (* sd of 0..19 is ~5.916; t(19, 99%) ~ 2.861; ci = t*sd/sqrt(20) *)
  check_floatish "99% ci" ~eps:0.02 3.785 (Stats.confidence_interval acc)

let test_percentiles () =
  let xs = Array.init 101 (fun i -> Float.of_int i) in
  check_float "p50" 50.0 (Stats.percentile (Array.copy xs) 50.0);
  check_float "p0" 0.0 (Stats.percentile (Array.copy xs) 0.0);
  check_float "p100" 100.0 (Stats.percentile (Array.copy xs) 100.0);
  check_float "p25" 25.0 (Stats.percentile (Array.copy xs) 25.0);
  check_float "median singleton" 7.0 (Stats.median [| 7.0 |])

let test_percentile_interpolation () =
  check_float "interpolated" 1.5 (Stats.percentile [| 1.0; 2.0 |] 50.0)

(* Regression: [percentile] once sorted its argument in place, silently
   reordering callers' sample arrays. *)
let test_percentile_no_mutation () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  let before = Array.copy xs in
  ignore (Stats.percentile xs 50.0);
  ignore (Stats.summarize xs);
  Alcotest.(check (array (float 0.0))) "input untouched" before xs

let test_log_histogram () =
  let h = Stats.Histogram.create_log ~lo:0.1 ~hi:1000.0 ~bins:40 in
  List.iter (Stats.Histogram.add h) [ 0.05; 0.5; 5.0; 50.0; 500.0; 5000.0 ];
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h);
  let edges = Stats.Histogram.bin_edges h in
  Alcotest.(check int) "edges" 41 (Array.length edges);
  check_floatish "first edge" ~eps:1e-9 0.1 edges.(0);
  check_floatish "last edge" ~eps:1e-6 1000.0 edges.(40);
  (* Exponential growth: constant edge ratio. *)
  let r0 = edges.(1) /. edges.(0) and r20 = edges.(21) /. edges.(20) in
  check_floatish "constant ratio" ~eps:1e-9 r0 r20;
  (* Percentile estimate lands within a bucket of the true value. *)
  let h2 = Stats.Histogram.create_log ~lo:1.0 ~hi:1000.0 ~bins:60 in
  for i = 1 to 1000 do
    Stats.Histogram.add h2 (Float.of_int i)
  done;
  let p50 = Stats.Histogram.percentile_estimate h2 50.0 in
  Alcotest.(check bool) "p50 near 500" true (p50 > 440.0 && p50 < 560.0);
  let p99 = Stats.Histogram.percentile_estimate h2 99.0 in
  Alcotest.(check bool) "p99 near 990" true (p99 > 890.0 && p99 < 1090.0)

let test_summarize () =
  let s = Stats.summarize (Array.init 100 (fun i -> Float.of_int i)) in
  Alcotest.(check int) "n" 100 s.n;
  check_float "mean" 49.5 s.mean;
  check_float "min" 0.0 s.min;
  check_float "max" 99.0 s.max;
  check_float "p50" 49.5 s.p50

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.5; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  Alcotest.(check int) "bin 0 (incl clamp below)" 2 counts.(0);
  Alcotest.(check int) "bin 1" 2 counts.(1);
  Alcotest.(check int) "bin 9 (incl clamp above)" 2 counts.(9);
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h);
  Alcotest.(check int) "edges" 11 (Array.length (Stats.Histogram.bin_edges h))

(* ------------------------------------------------------------------ *)
(* Heap (property-based) *)

module Int_heap = Grid_util.Heap.Make (Int)

let prop_heap_sorted =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.add h) xs;
      let drained = Int_heap.to_sorted_list h in
      drained = List.sort compare xs && Int_heap.check_invariant h)

let prop_heap_min =
  QCheck2.Test.make ~name:"heap min is list min" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) int)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.add h) xs;
      Int_heap.min_elt h = Some (List.fold_left min (List.hd xs) xs))

let test_heap_empty () =
  let h = Int_heap.create () in
  Alcotest.(check bool) "is_empty" true (Int_heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Int_heap.pop_min h);
  Alcotest.(check (option int)) "min empty" None (Int_heap.min_elt h)

let test_heap_interleaved () =
  let h = Int_heap.create () in
  Int_heap.add h 5;
  Int_heap.add h 1;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Int_heap.pop_min h);
  Int_heap.add h 3;
  Int_heap.add h 0;
  Alcotest.(check (option int)) "pop 0" (Some 0) (Int_heap.pop_min h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Int_heap.pop_min h);
  Alcotest.(check (option int)) "pop 5" (Some 5) (Int_heap.pop_min h);
  Alcotest.(check int) "len" 0 (Int_heap.length h)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basics () =
  let b = Bitset.create 10 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 9;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 7" true (Bitset.mem b 7);
  Alcotest.(check bool) "not mem 5" false (Bitset.mem b 5);
  Bitset.clear_bit b 7;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 7);
  Alcotest.(check (list int)) "to_list" [ 0; 9 ] (Bitset.to_list b)

let test_bitset_set_idempotent () =
  let b = Bitset.create 8 in
  Bitset.set b 3;
  Bitset.set b 3;
  Alcotest.(check int) "cardinal after double set" 1 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b 8)

let prop_bitset_roundtrip =
  QCheck2.Test.make ~name:"bitset of_list/to_list roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 63))
    (fun xs ->
      let uniq = List.sort_uniq compare xs in
      Bitset.to_list (Bitset.of_list 64 xs) = uniq)

let prop_bitset_union_inter =
  QCheck2.Test.make ~name:"bitset union/inter match set ops" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 0 20) (int_range 0 31)) (list_size (int_range 0 20) (int_range 0 31)))
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let sx = S.of_list xs and sy = S.of_list ys in
      let bx = Bitset.of_list 32 xs and by = Bitset.of_list 32 ys in
      Bitset.to_list (Bitset.union bx by) = S.elements (S.union sx sy)
      && Bitset.to_list (Bitset.inter bx by) = S.elements (S.inter sx sy))

(* ------------------------------------------------------------------ *)
(* Text table *)

let test_table_render () =
  let t =
    Text_table.create ~columns:[ ("Name", Text_table.Left); ("Value", Text_table.Right) ]
  in
  Text_table.add_row t [ "alpha"; "1.00" ];
  Text_table.add_row t [ "b"; "23.50" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "|");
  Alcotest.(check bool) "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "| b     | 23.50 |") lines)

let test_table_arity () =
  let t = Text_table.create ~columns:[ ("A", Text_table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: wrong number of cells")
    (fun () -> Text_table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "cell_f" "1.234" (Text_table.cell_f ~decimals:3 1.2341);
  Alcotest.(check string) "cell_ci" "\xc2\xb10.02" (Text_table.cell_ci ~decimals:2 0.0151)

(* ------------------------------------------------------------------ *)
(* Ids *)

let test_ids () =
  let r = Ids.Replica_id.of_int 3 in
  Alcotest.(check int) "replica roundtrip" 3 (Ids.Replica_id.to_int r);
  let c = Ids.Client_id.of_int 12 in
  let req1 = Ids.Request_id.make ~client:c ~seq:1 in
  let req2 = Ids.Request_id.make ~client:c ~seq:2 in
  Alcotest.(check bool) "request order" true (Ids.Request_id.compare req1 req2 < 0);
  Alcotest.(check bool) "request equal" true
    (Ids.Request_id.equal req1 (Ids.Request_id.make ~client:c ~seq:1));
  Alcotest.check_raises "negative replica" (Invalid_argument "Replica_id.of_int: negative")
    (fun () -> ignore (Ids.Replica_id.of_int (-1)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in hits range" `Quick test_rng_int_in;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "lognormal mean/cv" `Quick test_rng_lognormal_mean_cv;
        Alcotest.test_case "lognormal zero cv" `Quick test_rng_lognormal_zero_cv;
        Alcotest.test_case "zipf bounds and skew" `Quick test_rng_zipf_bounds_and_skew;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
        Alcotest.test_case "pick singleton" `Quick test_rng_pick_singleton;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
        Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "merge with empty" `Quick test_stats_merge_empty;
        Alcotest.test_case "t quantiles" `Quick test_t_quantile_table;
        Alcotest.test_case "t quantile invalid confidence" `Quick test_t_quantile_invalid;
        Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
        Alcotest.test_case "percentile leaves input unsorted" `Quick
          test_percentile_no_mutation;
        Alcotest.test_case "summarize" `Quick test_summarize;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "log histogram" `Quick test_log_histogram;
      ] );
    ( "util.heap",
      Alcotest.test_case "empty heap" `Quick test_heap_empty
      :: Alcotest.test_case "interleaved ops" `Quick test_heap_interleaved
      :: qcheck [ prop_heap_sorted; prop_heap_min ] );
    ( "util.bitset",
      Alcotest.test_case "basics" `Quick test_bitset_basics
      :: Alcotest.test_case "idempotent set" `Quick test_bitset_set_idempotent
      :: Alcotest.test_case "bounds" `Quick test_bitset_bounds
      :: qcheck [ prop_bitset_roundtrip; prop_bitset_union_inter ] );
    ( "util.text_table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity check" `Quick test_table_arity;
        Alcotest.test_case "cell formatting" `Quick test_table_cells;
      ] );
    ("util.ids", [ Alcotest.test_case "typed ids" `Quick test_ids ]);
  ]
