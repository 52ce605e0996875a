(* Tests of the benchmark's own logic: the order statistics its reports
   and bounds rest on, the output checker (fed synthetic histories with
   planted bugs), and the agreement between BENCHMARK.json and the
   metric lists the benchmark prints. *)

open Gridbench
module Json = Grid_obs.Json

let close = Alcotest.float 1e-9

(* --- Pct --- *)

let test_percentile () =
  let s = Pct.sorted [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  Alcotest.check close "p0" 1.0 (Pct.at s 0.0);
  Alcotest.check close "p50" 3.0 (Pct.at s 50.0);
  Alcotest.check close "p100" 5.0 (Pct.at s 100.0);
  Alcotest.check close "p90 interpolates" 4.6 (Pct.at s 90.0);
  Alcotest.check close "even-sized median" 2.5 (Pct.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pct.at [||] 50.0))

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs expect =
    let a, b, c = Pct.quartiles xs in
    let ea, eb, ec = expect in
    Alcotest.check close "q1" ea a;
    Alcotest.check close "q2" eb b;
    Alcotest.check close "q3" ec c
  in
  q [| 1.0; 2.0; 3.0; 4.0 |] (1.25, 2.5, 3.75);
  q [| 5.0; 1.0; 4.0; 2.0; 3.0 |] (1.5, 3.0, 4.5);
  q [| 10.0; 20.0 |] (7.5, 15.0, 22.5);
  q [| 2.07; 2.05; 2.11; 2.3; 2.06; 2.08; 2.09; 2.1; 2.04; 2.12 |] (2.0575, 2.085, 2.1125)

let test_iq_mean () =
  Alcotest.check close "outliers dropped" 2.5 (Pct.iq_mean [| 100.0; 2.0; 3.0; -50.0 |]);
  Alcotest.check close "small samples keep everything" 2.0 (Pct.iq_mean [| 1.0; 3.0; 2.0 |]);
  Alcotest.check close "ten values keep the middle six" 5.5
    (Pct.iq_mean [| 10.0; 9.0; 8.0; 7.0; 6.0; 5.0; 4.0; 3.0; 2.0; 1.0 |])

let test_spread () =
  Alcotest.check (Alcotest.float 1e-12) "iqr / median" 0.02637889688249387
    (Pct.spread [| 2.07; 2.05; 2.11; 2.3; 2.06; 2.08; 2.09; 2.1; 2.04; 2.12 |]);
  Alcotest.check close "constant sample" 0.0 (Pct.spread [| 3.0; 3.0; 3.0 |]);
  Alcotest.check close "max-min / median" 0.5 (Pct.range_spread [| 4.0; 3.0; 5.0 |])

(* --- Check --- *)

let put ?(acked = true) value issued returned = { Check.value; issued; returned; acked }
let get key got g_issued g_returned = { Check.key; g_issued; g_returned; got = Some got }

(* Key 0: initial "a", then puts "b" (acked at t=2) and "c" (acked at
   t=4). Key 1: initial "x", one put "y" that timed out. *)
let history gets =
  {
    Check.initial = [| Some "a"; Some "x" |];
    puts = [| [| put "b" 1.0 2.0; put "c" 3.0 4.0 |]; [| put ~acked:false "y" 1.0 6.0 |] |];
    gets;
  }

let final h values = Check.final h (fun k -> values.(k))

let test_clean () =
  let h =
    history
      [ get 0 "a" 0.0 0.5; get 0 "b" 2.5 2.8; get 0 "b" 3.5 3.6 (* "c" in flight *);
        get 0 "c" 3.5 3.9; get 0 "c" 5.0 5.1; get 1 "x" 2.0 2.1; get 1 "y" 2.0 2.1 ]
  in
  Alcotest.(check (list string)) "reads" [] (Check.reads h);
  Alcotest.(check (list string)) "final at last ack" [] (final h [| Some "c"; Some "x" |]);
  Alcotest.(check (list string)) "timed-out put may land" [] (final h [| Some "c"; Some "y" |])

let test_planted_stale_read () =
  (* "b" was acknowledged at t=2; a get issued at t=2.5 returns "a". *)
  let h = history [ get 0 "a" 2.5 2.6 ] in
  Alcotest.(check int) "stale read flagged" 1 (List.length (Check.reads h))

let test_planted_lost_write () =
  (* "c" was acknowledged, yet the replicas hold "b". *)
  let h = history [] in
  Alcotest.(check int) "lost write flagged" 1 (List.length (final h [| Some "b"; Some "x" |]));
  Alcotest.(check int) "vanished key flagged" 1 (List.length (final h [| Some "c"; None |]))

let test_invented_values () =
  let h = history [ get 0 "zzz" 0.0 9.0; get 0 "c" 0.0 0.5 ] in
  Alcotest.(check int) "unknown value and future value flagged" 2 (List.length (Check.reads h))

(* --- BENCHMARK.json --- *)

let test_benchmark_json () =
  let j = Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let arr k = match Json.member k j with Some (Json.Arr l) -> l | _ -> Alcotest.fail k in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_str) in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.filter (fun (name, _) -> List.mem name Spec.listed) Spec.workloads)
    (List.map (fun w -> (str "name" w, str "why" w)) (arr "workloads"));
  Alcotest.(check (list (list string)))
    "end_to_end"
    (List.map
       (fun (e : Spec.e2e) -> [ e.name; e.unit; e.better; Printf.sprintf "%g" e.bound ])
       Spec.end_to_end)
    (List.map
       (fun m ->
         [ str "name" m; str "unit" m; str "better" m;
           Printf.sprintf "%g" (Option.get (Option.bind (Json.member "bound" m) Json.to_float)) ])
       (arr "end_to_end"));
  Alcotest.(check (list (list string)))
    "per_layer"
    (List.map (fun (l : Spec.layer) -> [ l.name; l.unit; l.better ]) Spec.per_layer)
    (List.map (fun m -> [ str "name" m; str "unit" m; str "better" m ]) (arr "per_layer"))

let () =
  Alcotest.run "gridbench"
    [ ( "pct",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "interquartile mean" `Quick test_iq_mean;
          Alcotest.test_case "spread" `Quick test_spread ] );
      ( "check",
        [ Alcotest.test_case "clean history" `Quick test_clean;
          Alcotest.test_case "planted stale read" `Quick test_planted_stale_read;
          Alcotest.test_case "planted lost write" `Quick test_planted_lost_write;
          Alcotest.test_case "invented values" `Quick test_invented_values ] );
      ("spec", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]) ]
