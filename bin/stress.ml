(* Nemesis stress runner: seeded model-checker schedules with crashes
   (clean and torn-persist), metadata loss, duplication and reordering,
   checking agreement, durability and linearizability on every run.

     dune exec bin/stress.exe -- --schedules 200
     dune exec bin/stress.exe -- --seed 42 --service kv      # replay one
     dune exec bin/stress.exe -- --plant-dedup               # shrink demo

   Exit status is 0 iff every schedule passed (or, with --plant-dedup,
   iff the planted bug was caught and shrunk). *)

open Cmdliner
module Stress = Grid_check.Stress
module Mcheck = Grid_check.Mcheck
module Xstress = Grid_check.Xstress

let services_of = function
  | `Counter -> [ Stress.Counter_service ]
  | `Kv -> [ Stress.Kv_service ]
  | `Both -> [ Stress.Counter_service; Stress.Kv_service ]

let print_failures failures =
  List.iter
    (fun f -> Format.printf "FAIL %a@." Stress.pp_failure f)
    failures

let dump_trace file events =
  (try Grid_obs.Span.dump_file file events
   with Sys_error e ->
     Printf.eprintf "trace-dump failed: %s\n" e;
     exit 1);
  Format.printf "trace: %d events -> %s@." (List.length events) file

(* Run one seed per selected service, then re-run it from the recorded
   fault plan and insist the replay reproduces the outcome exactly
   ({!Stress.replay_differences}). *)
let run_single ~services ~seed ~steps ~nem ~cfg_tweak ~trace_dump =
  let ok = ref true in
  List.iter
    (fun service ->
      let obs =
        match trace_dump with
        | None -> None
        | Some _ -> Some (Grid_obs.Span.Recorder.create ~enabled:true ())
      in
      let o, failure =
        Stress.run_one ~service ?obs ~steps ~nemesis:nem ~cfg_tweak ~seed ()
      in
      (match (trace_dump, obs) with
      | Some file, Some obs ->
        let file =
          if List.length services > 1 then file ^ "." ^ Stress.service_name service
          else file
        in
        dump_trace file (Grid_obs.Span.Recorder.events obs)
      | _ -> ());
      Format.printf "seed %d (%s): %d delivered, %d replies, commit points [%s]@."
        seed
        (Stress.service_name service)
        o.delivered (List.length o.replies)
        (String.concat ";" (Array.to_list (Array.map string_of_int o.committed)));
      Format.printf "  plan (%d events): %a@." (List.length o.plan) Mcheck.pp_plan
        o.plan;
      let r, _ =
        Stress.run_one ~service ~steps ~nemesis:nem ~cfg_tweak ~shrink:false
          ~plan:o.plan ~seed ()
      in
      (match Stress.replay_differences o r with
      | [] -> Format.printf "  replay from plan: deterministic (identical outcome)@."
      | fields ->
        Format.printf "  replay from plan DIVERGED (%s)@." (String.concat ", " fields);
        ok := false);
      match failure with
      | None -> Format.printf "  all invariants hold@."
      | Some f ->
        print_failures [ f ];
        ok := false)
    services;
  if !ok then 0 else 1

(* Plant the double-commit bug (dedup disabled), find a schedule that
   catches it, and shrink that schedule to a minimal fault plan. Seeds
   whose fault-free schedule already fails (client retransmission alone
   can straddle a commit) shrink to an empty plan; prefer a seed where
   the injected faults are essential, so the minimal plan pins them. *)
let run_plant ~seed ~steps ~nem ~attempts =
  let nem = { nem with Mcheck.dup_prob = 0.15 } in
  let fails ~seed plan =
    snd
      (Stress.run_one ~service:Stress.Counter_service ~steps ~nemesis:nem
         ~disable_dedup:true ~shrink:false ~plan ~seed ())
    <> None
  in
  let rec hunt s fallback =
    if s >= seed + attempts then fallback
    else
      let _, failure =
        Stress.run_one ~service:Stress.Counter_service ~steps ~nemesis:nem
          ~disable_dedup:true ~shrink:true ~seed:s ()
      in
      match failure with
      | Some f when not (fails ~seed:s []) -> Some f
      | Some f -> hunt (s + 1) (if fallback = None then Some f else fallback)
      | None -> hunt (s + 1) fallback
  in
  Format.printf
    "hunting for a schedule that catches the planted dedup bug (seeds %d..%d)@."
    seed
    (seed + attempts - 1);
  match hunt seed None with
  | None ->
    Format.printf "planted bug escaped %d schedules — FAIL@." attempts;
    1
  | Some f ->
    print_failures [ f ];
    (match f.shrunk with
    | Some shrunk ->
      if fails ~seed:f.seed shrunk then begin
        Format.printf
          "minimal failing schedule: seed %d, %d of %d fault events@." f.seed
          (List.length shrunk) (List.length f.plan);
        0
      end
      else begin
        Format.printf "shrunk plan no longer fails — FAIL@.";
        1
      end
    | None ->
      Format.printf "no shrunk plan produced — FAIL@.";
      1)

let batch_progress ~quiet =
  if quiet then None
  else
    Some
      (fun (s : Stress.summary) ->
        if s.schedules mod 50 = 0 then
          Format.printf "  ... %d schedules, %d failing@." s.schedules
            (List.length s.failures))

let run_batch ~services ~schedules ~base_seed ~steps ~nem ~cfg_tweak ~quiet =
  let progress = batch_progress ~quiet in
  let summary =
    Stress.run ~services ~schedules ~base_seed ~steps ~nemesis:nem ~cfg_tweak
      ?progress ()
  in
  Format.printf "%a@." Stress.pp_summary summary;
  print_failures summary.failures;
  if summary.failures = [] then 0 else 1

(* The overload tier: counter service, write-heavy workload, tiny
   admission window, crash-doubled nemesis, plus the admitted-loss and
   bounded-admitted-p99 oracles on every schedule. *)
let run_overload ~schedules ~base_seed ~steps ~quiet =
  let progress = batch_progress ~quiet in
  let summary = Stress.run_overload ~schedules ~base_seed ~steps ?progress () in
  Format.printf "%a@." Stress.pp_summary summary;
  print_failures summary.failures;
  if summary.shed = 0 then begin
    Format.printf "no Overloaded pushback exercised — FAIL@.";
    1
  end
  else if summary.failures = [] then 0
  else 1

(* The sharded tiers (see Grid_check.Xstress): --xshard drives 2PC
   transactions, --reshard live splits and merges, over 3 groups under
   crashes, duplication and reordering. With --seed, run that one
   schedule, optionally dumping its spans; exit 0 iff it passed. *)
let print_outcome prefix (o : Xstress.outcome) =
  Format.printf "%s%a@." prefix Xstress.pp_outcome o;
  List.iter (fun v -> Format.printf "  %s@." v) o.violations

let run_sharded_one tier ~seed ~trace_dump =
  let o = Xstress.run_one ?trace:(Option.map dump_trace trace_dump) ~seed tier in
  print_outcome "" o;
  if o.violations = [] then 0 else 1

(* A batch fails on any failing schedule, and also when it never
   exercised what its tier exists to stress. *)
let run_sharded tier ~schedules ~base_seed ~quiet =
  let progress =
    if quiet then None
    else
      Some
        (fun (s : Xstress.summary) ->
          if s.schedules mod 50 = 0 then
            Format.printf "  ... %d schedules, %d failing@." s.schedules
              (List.length s.failures))
  in
  let summary = Xstress.run ~schedules ~base_seed ?progress tier in
  Format.printf "%a@." Xstress.pp_summary summary;
  List.iter (print_outcome "FAIL ") summary.failures;
  match Xstress.unexercised summary with
  | Some what ->
    Format.printf "%s — FAIL@." what;
    1
  | None -> if summary.failures = [] then 0 else 1

let main schedules seed base_seed steps service drift lease_ms plant_dedup
    overload xshard reshard quiet trace_dump =
  let nem =
    if drift > 0.0 then { Stress.lease_nemesis with drift_prob = drift }
    else Stress.default_nemesis
  in
  let cfg_tweak =
    if lease_ms > 0.0 then fun c -> Grid_paxos.Config.make ~base:c ~lease_ms ()
    else Fun.id
  in
  let services = services_of service in
  if plant_dedup then run_plant ~seed:base_seed ~steps ~nem ~attempts:40
  else if xshard || reshard then (
    let tier = if xshard then Xstress.Xshard else Xstress.Reshard in
    match seed with
    | Some seed -> run_sharded_one tier ~seed ~trace_dump
    | None -> run_sharded tier ~schedules ~base_seed ~quiet)
  else if overload then run_overload ~schedules ~base_seed ~steps ~quiet
  else
    match seed with
    | Some seed -> run_single ~services ~seed ~steps ~nem ~cfg_tweak ~trace_dump
    | None -> run_batch ~services ~schedules ~base_seed ~steps ~nem ~cfg_tweak ~quiet

let schedules_arg =
  Arg.(
    value & opt int 200
    & info [ "schedules" ] ~docv:"N" ~doc:"Number of seeded schedules to run.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Run exactly one schedule with this seed (per selected service), print \
           its fault plan, and verify the plan replays deterministically.")

let base_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "base-seed" ] ~docv:"N" ~doc:"First seed of the batch.")

let steps_arg =
  Arg.(
    value & opt int 1_200
    & info [ "steps" ] ~docv:"N" ~doc:"Scheduling steps per schedule.")

let service_arg =
  Arg.(
    value
    & opt (enum [ ("counter", `Counter); ("kv", `Kv); ("both", `Both) ]) `Both
    & info [ "service" ] ~docv:"SERVICE" ~doc:"Service under test (counter|kv|both).")

let rate name doc default =
  Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc)

let drift_arg =
  rate "drift"
    "Per-step clock-drift probability (offsets up to 2 ms) on top of the \
     default fault mix."
    0.0

let lease_ms_arg =
  rate "lease-ms"
    "Leader-lease duration in milliseconds (0 disables the read fast path)." 0.0

let plant_arg =
  Arg.(
    value & flag
    & info [ "plant-dedup" ]
        ~doc:
          "Demo: disable request deduplication, find a schedule that catches the \
           resulting double-commit, and shrink it to a minimal fault plan.")

let overload_arg =
  Arg.(
    value & flag
    & info [ "overload" ]
        ~doc:
          "Run the overload tier instead of the default batch: counter service \
           under a write-heavy open-loop workload with a tiny admission window \
           and a crash-doubled nemesis, checking the admitted-loss and bounded \
           admitted-p99 oracles on every schedule. Honours --schedules, \
           --base-seed, --steps and --quiet.")

let xshard_arg =
  Arg.(
    value & flag
    & info [ "xshard" ]
        ~doc:
          "Run the cross-shard tier instead of the default batch: sharded KV \
           runtime driving 2PC transactions against replica crashes, message \
           duplication/reordering, contending single-shard traffic and \
           abandoned coordinators, with the per-group agreement and \
           cross-shard atomicity/serializability oracles on every schedule. \
           Honours --schedules, --base-seed and --quiet, or --seed (one \
           schedule) with --trace-dump.")

let reshard_arg =
  Arg.(
    value & flag
    & info [ "reshard" ]
        ~doc:
          "Run the elastic-resharding tier instead of the default batch: a \
           live key range splits and merges between groups (snapshot handoff, \
           FREEZE/INSTALL/COMMIT) while closed-loop clients append tagged \
           tokens across the moving keyspace, leaders of the migrating groups \
           crash mid-protocol and some coordinators park after FREEZE for \
           presumed-abort recovery. Every schedule checks per-group agreement \
           and that each acked append appears exactly once at the final \
           owner. Honours --schedules, --base-seed and --quiet, or --seed \
           (one schedule) with --trace-dump.")

let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let trace_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dump" ] ~docv:"FILE"
        ~doc:
          "With --seed (single-group, --xshard or --reshard): record the \
           replicas' lifecycle spans (virtual-clock timestamps, deterministic \
           per seed) and dump them as JSONL to $(docv).")

let cmd =
  let doc = "Nemesis stress harness for the replicated-service protocol" in
  Cmd.v
    (Cmd.info "grid-stress" ~doc)
    Term.(
      const main $ schedules_arg $ seed_arg $ base_seed_arg $ steps_arg
      $ service_arg $ drift_arg $ lease_ms_arg $ plant_arg $ overload_arg
      $ xshard_arg $ reshard_arg $ quiet_arg $ trace_dump_arg)

let () = exit (Cmd.eval' cmd)
