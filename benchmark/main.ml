(* Wall-clock benchmark of the replicated key-value store.

     dune exec benchmark/main.exe -- --seed N [--workload W] [--seconds S]
       [--trace [0|1]] [--repeat K] [--quick] [--out FILE]

   Run it from the repository root. Each workload run happens in a
   fresh child process (this executable, re-invoked), so its peak RSS
   and heap are its own. The seed only shapes the generated inputs:
   keys, read/write draws, arrival times and the simulator seed. Every
   metric is printed with its unit and clock; the last line of standard
   output is one JSON object (correct, attempted, failed, metrics), and
   the full result goes to --out. The exit code is non-zero when an
   output check fails. See benchmark/README.md. *)

module Json = Grid_obs.Json
module Pct = Gridbench.Pct
module Spec = Gridbench.Spec

let results_dir = Filename.concat "benchmark" "results"

type opts = {
  seed : int;
  workloads : string list;
  seconds : float option;
  trace : bool;
  repeat : int;
  quick : bool;
  out : string;
  child : string option;  (* internal: run one workload, write its outcome here *)
  traced : bool;  (* internal: the child run is the traced one *)
}

let usage () =
  prerr_endline
    "usage: main.exe --seed N [--workload W] [--seconds S] [--trace [0|1]] [--repeat K] [--quick] \
     [--out FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst Spec.workloads));
  exit 2

let parse argv =
  let runnable = List.map fst Spec.workloads in
  let o =
    ref
      { seed = 1; workloads = []; seconds = None; trace = false; repeat = 1; quick = false;
        out = Filename.concat results_dir "result.json"; child = None; traced = false }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: n :: rest -> o := { !o with seed = int_of n }; go rest
    | "--workload" :: w :: rest ->
      if not (List.mem w runnable) then usage ();
      o := { !o with workloads = !o.workloads @ [ w ] };
      go rest
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0.0 -> o := { !o with seconds = Some x }; go rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--trace" :: rest -> o := { !o with trace = true }; go rest
    | "--repeat" :: k :: rest -> o := { !o with repeat = max 1 (int_of k) }; go rest
    | "--quick" :: rest -> o := { !o with quick = true }; go rest
    | "--out" :: f :: rest -> o := { !o with out = f }; go rest
    | "--child" :: f :: rest -> o := { !o with child = Some f }; go rest
    | "--traced" :: rest -> o := { !o with traced = true }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if !o.workloads = [] then o := { !o with workloads = runnable };
  !o

(* Run sizes. --seconds sets the measured window of the closed-loop
   workloads and scales the failover episodes and the simulator's work
   with it; --quick is the smoke-test size. *)
let window_s o = match o.seconds with Some s -> s | None -> if o.quick then 3.0 else 15.0
let warmup_s o = if o.quick then 0.5 else 2.0
let episodes o = if o.quick then 2 else max 2 (Float.to_int (Float.round (0.4 *. window_s o)))
let sim_items o = if o.quick then 300 else Float.to_int (280.0 *. window_s o)
let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Child: one workload, one process *)

(* Where a child keeps its replicas' storage; the parent removes it once
   the child has ended, however it ended. *)
let child_dir pid = Filename.concat results_dir (Printf.sprintf "tmp-%d" pid)

let run_child o path =
  let workload = List.hd o.workloads in
  if o.traced then Timed.enable ();
  let dir = child_dir (Unix.getpid ()) in
  let steady name ~keys ~read_frac =
    Tcp.steady ~name ~keys ~read_frac ~seed:o.seed ~traced:o.traced ~window_s:(window_s o)
      ~warmup_s:(warmup_s o) ~setup_reps ~dir ~results_dir
  in
  let outcome =
    match workload with
    | "write_small" -> steady "write_small" ~keys:64 ~read_frac:0.0
    | "write_large" -> steady "write_large" ~keys:4096 ~read_frac:0.0
    | "read_mostly" -> steady "read_mostly" ~keys:64 ~read_frac:0.9
    | "failover" ->
      Tcp.failover ~seed:o.seed ~traced:o.traced ~episodes:(episodes o) ~dir ~results_dir
    | _ -> Sim.run ~seed:o.seed ~traced:o.traced ~items:(sim_items o)
  in
  Report.write_file path
    { outcome with
      metrics = outcome.metrics @ [ Report.metric "peak_rss_mb" "MiB" (Probe.peak_rss_mb ()) ] }

(* ------------------------------------------------------------------ *)
(* Parent: spawn, wait, collect *)

let child_deadline_s = 170.0
let spawned = ref 0

let spawn o ~workload ~seed ~traced =
  incr spawned;
  let path =
    Filename.concat results_dir (Printf.sprintf "child-%d-%d.json" (Unix.getpid ()) !spawned)
  in
  let args =
    [ Sys.executable_name; "--child"; path; "--workload"; workload; "--seed"; string_of_int seed ]
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ (if o.quick then [ "--quick" ] else [])
    @ if traced then [ "--traced" ] else []
  in
  (* The child's standard output joins our standard error: only this
     process writes the report. *)
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = Probe.now () +. child_deadline_s in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
      if Probe.now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
    | _, status -> status
  in
  (match wait () with
  | WEXITED 0 -> ()
  | WEXITED n -> Printf.eprintf "benchmark: the %s run exited with code %d\n%!" workload n
  | WSIGNALED n | WSTOPPED n ->
    Printf.eprintf "benchmark: the %s run was killed by signal %d\n%!" workload n);
  Tcp.rm_rf (child_dir pid);
  let outcome = Report.read_file path in
  (try Sys.remove path with Sys_error _ -> ());
  match outcome with
  | Some r -> r
  | None ->
    Printf.eprintf "benchmark: the %s run (seed %d) ended without a result\n%!" workload seed;
    exit 1

type workload_result = {
  name : string;
  runs : Report.outcome list;  (** untraced, one per repeat *)
  trace_run : Report.outcome option;
}

let values runs name =
  Array.of_list
    (List.filter_map
       (fun r -> Option.map (fun (m : Report.metric) -> m.value) (Report.find r name))
       runs)

(* obs.trace_overhead_pct: CPU per operation of the traced run against
   the untraced runs' median. *)
let with_overhead r =
  match r.trace_run with
  | None -> r
  | Some t ->
    let base = Pct.median (values r.runs "cpu_ms_per_op") in
    let traced = values [ t ] "cpu_ms_per_op" in
    let pct = if Array.length traced = 0 then 0.0 else (traced.(0) /. base -. 1.0) *. 100.0 in
    { r with
      trace_run =
        Some { t with metrics = t.metrics @ [ Report.metric "obs.trace_overhead_pct" "%" pct ] } }

let run_all o =
  let order k = if k mod 2 = 0 then o.workloads else List.rev o.workloads in
  let runs =
    List.concat
      (List.init o.repeat (fun k ->
           List.map (fun w -> (w, spawn o ~workload:w ~seed:(o.seed + k) ~traced:false)) (order k)))
  in
  List.map
    (fun w ->
      with_overhead
        {
          name = w;
          runs = List.filter_map (fun (w', r) -> if w' = w then Some r else None) runs;
          trace_run =
            (if o.trace then Some (spawn o ~workload:w ~seed:o.seed ~traced:true) else None);
        })
    o.workloads

(* ------------------------------------------------------------------ *)
(* Reporting *)

let outcomes r = r.runs @ Option.to_list r.trace_run
let correct r = List.for_all (fun (o : Report.outcome) -> o.violations = []) (outcomes r)

(* A metric over the untraced runs: the median, plus the quartiles and
   spreads once there are two or more runs. *)
type summary = { median : float; spread : (float * float * float * float) option }

let summarize r name =
  let v = values r.runs name in
  {
    median = Pct.median v;
    spread =
      (if Array.length v < 2 then None
       else
         let q1, _, q3 = Pct.quartiles v in
         Some (q1, q3, Pct.spread v, Pct.range_spread v));
  }

let print_workload o r =
  Printf.printf "\n== %s: %d run(s) from seed %d%s ==\n" r.name (List.length r.runs) o.seed
    (if correct r then "" else "  ** OUTPUT CHECK FAILED **");
  List.iter (fun v -> Printf.printf "  check failed: %s\n" v)
    (List.concat_map (fun (x : Report.outcome) -> x.violations) (outcomes r));
  (match r.runs with
  | first :: _ ->
    List.iter
      (fun (m : Report.metric) ->
        let s = summarize r m.name in
        Printf.printf "  %-30s %14.4f %-6s %-7s%s\n" m.name s.median m.unit
          (Report.clock_name m.clock)
          (match s.spread with
          | Some (q1, q3, spread, range) ->
            let pct x = if Float.is_finite x then Printf.sprintf "%.1f%%" (100. *. x) else "-" in
            Printf.sprintf "  q1 %.4f  q3 %.4f  spread %s  max-min %s" q1 q3 (pct spread)
              (pct range)
          | None -> ""))
      first.metrics
  | [] -> ());
  Option.iter
    (fun (t : Report.outcome) ->
      Printf.printf "  -- layers (traced run) --\n";
      List.iter
        (fun (m : Report.metric) ->
          if not (List.exists (fun r -> Report.find r m.name <> None) r.runs) then
            Printf.printf "  %-30s %14.4f %-6s %s\n" m.name m.value m.unit
              (Report.clock_name m.clock))
        t.metrics)
    r.trace_run

let git_commit () =
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let ref_ = String.sub head 5 (String.length head - 5) in
      try read (Filename.concat ".git" ref_)
      with Sys_error _ ->
        In_channel.with_open_bin ".git/packed-refs" In_channel.input_lines
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; r ] when r = ref_ -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
    end
    else head
  with Sys_error _ -> "unknown"

let result_json o results =
  let workload r =
    let sum f = List.fold_left (fun a x -> a + f x) 0 (outcomes r) in
    let e2e =
      match r.runs with
      | first :: _ ->
        List.map
          (fun (m : Report.metric) ->
            let s = summarize r m.name in
            let runs = Array.to_list (Array.map (fun v -> Json.Num v) (values r.runs m.name)) in
            let spread =
              match s.spread with
              | Some (q1, q3, spread, range) ->
                [ ("q1", Json.Num q1); ("q3", Json.Num q3); ("spread", Json.Num spread);
                  ("range_spread", Json.Num range) ]
              | None -> []
            in
            let extra = ("runs", Json.Arr runs) :: spread in
            (m.name, Report.metric_json { m with value = s.median } ~extra))
          first.metrics
      | [] -> []
    in
    let layers =
      match r.trace_run with
      | Some t ->
        List.map
          (fun (m : Report.metric) ->
            let moves =
              match Spec.moves m.name with Some s -> [ ("moves", Json.Str s) ] | None -> []
            in
            (m.name, Report.metric_json m ~extra:moves))
          t.metrics
      | None -> []
    in
    ( r.name,
      Json.Obj
        [ ("correct", Json.Bool (correct r));
          ("attempted", Json.int (sum (fun (x : Report.outcome) -> x.attempted)));
          ("failed", Json.int (sum (fun (x : Report.outcome) -> x.failed)));
          ( "violations",
            Json.Arr
              (List.concat_map
                 (fun (x : Report.outcome) -> List.map (fun v -> Json.Str v) x.violations)
                 (outcomes r)) );
          ("metrics", Json.Obj e2e);
          ("layers", Json.Obj layers) ] )
  in
  Json.Obj
    [ ("schema", Json.int 1);
      ("commit", Json.Str (git_commit ()));
      ("seed", Json.int o.seed);
      ("mode", Json.Str (if o.quick then "quick" else "full"));
      ("window_s", Json.Num (window_s o));
      ("repeat", Json.int o.repeat);
      ("trace", Json.Bool o.trace);
      ("workloads", Json.Obj (List.map workload results)) ]

(* The last line: the metrics BENCHMARK.json names — end-to-end ones,
   or per-layer ones from the traced run with --trace. *)
let summary_line o results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.name ^ "." in
  let metrics =
    List.concat_map
      (fun r ->
        let pick names source =
          List.map
            (fun (name, unit) ->
              let v = values source name in
              ( prefix r ^ name,
                Json.Obj
                  [ ("value", Json.Num (if Array.length v = 0 then nan else Pct.median v));
                    ("unit", Json.Str unit) ] ))
            names
        in
        if o.trace then
          pick
            (List.map (fun (l : Spec.layer) -> (l.name, l.unit)) Spec.per_layer)
            (Option.to_list r.trace_run)
        else pick (List.map (fun (e : Spec.e2e) -> (e.name, e.unit)) Spec.end_to_end) r.runs)
      results
  in
  let sum f =
    List.fold_left (fun a r -> List.fold_left (fun a x -> a + f x) a (outcomes r)) 0 results
  in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all correct results));
      ("attempted", Json.int (sum (fun (x : Report.outcome) -> x.attempted)));
      ("failed", Json.int (sum (fun (x : Report.outcome) -> x.failed)));
      ("metrics", Json.Obj metrics) ]

let () =
  let o = parse Sys.argv in
  Tcp.mkdir_p results_dir;
  match o.child with
  | Some path ->
    (* Writing to a socket whose peer has gone (a stopped replica) must
       fail with EPIPE, which the transport handles, instead of killing
       the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    run_child o path
  | None ->
    let results = run_all o in
    List.iter (print_workload o) results;
    let oc = open_out o.out in
    output_string oc (Json.to_string_pretty (result_json o results));
    close_out oc;
    Printf.printf "\nresult file: %s\n%s\n%!" o.out (Json.to_string (summary_line o results));
    if not (List.for_all correct results) then exit 1
