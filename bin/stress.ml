(* Nemesis stress runner: a batch of seeded schedules of one tier
   ({!Grid_check.Tier}), or one seed of it, checking the tier's oracles
   on every run.

     dune exec bin/stress.exe -- --schedules 200
     dune exec bin/stress.exe -- --tier xshard --schedules 200
     dune exec bin/stress.exe -- --tier kv --seed 42         # replay one
     dune exec bin/stress.exe -- --plant-dedup               # shrink demo

   Exit status is 0 iff every schedule passed (or, with --plant-dedup,
   iff the planted bug was caught and shrunk); a flag that does not
   apply to --plant-dedup is a usage error. *)

open Cmdliner
module Stress = Grid_check.Stress
module Mcheck = Grid_check.Mcheck
module Tier = Grid_check.Tier

let dump_trace file events =
  (try Grid_obs.Span.dump_file file events
   with Sys_error e ->
     Printf.eprintf "trace-dump failed: %s\n" e;
     exit 1);
  Format.printf "trace: %d events -> %s@." (List.length events) file

(* Run one seed on every lane of the tier (a [--trace-dump] file gets
   the lane's name as a suffix when there are several) and exit 0 iff
   each passed. *)
let run_seed (p : _ Tier.plug) ~seed ~trace_dump =
  let dump (lane : _ Tier.lane) =
    Option.map
      (fun file ->
        dump_trace (if List.length p.lanes > 1 then file ^ "." ^ lane.name else file))
      trace_dump
  in
  let ok =
    List.fold_left
      (fun ok (lane : _ Tier.lane) ->
        lane.check ?trace:(dump lane) ~seed Format.std_formatter && ok)
      true p.lanes
  in
  if ok then 0 else 1

(* Plant the double-commit bug (dedup disabled), hunt counter schedules
   for one that catches it, and shrink that schedule to a minimal fault
   plan. Seeds whose fault-free schedule already fails (client
   retransmission alone can straddle a commit) shrink to an empty plan;
   prefer a seed where the injected faults are essential, so the minimal
   plan pins them. *)
let run_plant ~seed ~steps ~nem ~cfg_tweak ~attempts =
  let nem = { nem with Mcheck.dup_prob = 0.15 } in
  let cfg_tweak c = Grid_paxos.Config.make ~base:(cfg_tweak c) ~disable_dedup:true () in
  let run ~shrink ?plan s =
    Stress.run_one ~service:Stress.Counter_service ~steps ~nemesis:nem ~cfg_tweak
      ~shrink ?plan ~seed:s ()
  in
  let fails ~seed plan = snd (run ~shrink:false ~plan seed) <> None in
  let rec hunt s fallback =
    if s >= seed + attempts then fallback
    else
      let _, failure = run ~shrink:true s in
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
    Format.printf "FAIL %a@." Stress.pp_failure f;
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

(* A batch fails on any failing schedule, and also when it never
   exercised what its tier exists to stress. *)
let run_batch (p : _ Tier.plug) ~schedules ~base_seed ~quiet =
  let progress n failing =
    if (not quiet) && n mod 50 = 0 then
      Format.printf "  ... %d schedules, %d failing@." n failing
  in
  let summary = Tier.batch ~progress ~schedules ~base_seed p in
  p.pp_batch Format.std_formatter summary;
  match p.unexercised summary with
  | Some what ->
    Format.printf "%s — FAIL@." what;
    1
  | None -> if p.failing_seeds summary = [] then 0 else 1

let main schedules seed base_seed steps tier drift lease_ms plant_dedup quiet
    trace_dump =
  let nemesis =
    if drift > 0.0 then { Stress.lease_nemesis with drift_prob = drift }
    else Stress.default_nemesis
  in
  let cfg_tweak =
    if lease_ms > 0.0 then fun c -> Grid_paxos.Config.make ~base:c ~lease_ms ()
    else Fun.id
  in
  match (plant_dedup, tier, seed, trace_dump) with
  | true, Some _, _, _ -> `Error (true, "--plant-dedup hunts counter schedules; drop --tier")
  | true, None, Some _, _ -> `Error (true, "--plant-dedup hunts from --base-seed; drop --seed")
  | true, None, None, Some _ -> `Error (true, "--plant-dedup dumps no trace; drop --trace-dump")
  | true, None, None, None ->
    `Ok (run_plant ~seed:base_seed ~steps ~nem:nemesis ~cfg_tweak ~attempts:schedules)
  | false, _, None, Some _ -> `Error (true, "--trace-dump dumps one schedule; add --seed")
  | false, tier, seed, _ -> (
    let (Tier.Any tier) = Option.value tier ~default:(Tier.Any Both) in
    let p = Tier.plug ~steps ~nemesis ~cfg_tweak tier in
    match seed with
    | Some seed -> `Ok (run_seed p ~seed ~trace_dump)
    | None -> `Ok (run_batch p ~schedules ~base_seed ~quiet))

let schedules_arg =
  Arg.(
    value & opt int 200
    & info [ "schedules" ] ~docv:"N"
        ~doc:"Number of seeded schedules to run (with --plant-dedup: to hunt).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Run exactly one schedule with this seed (per service for --tier both) \
           and print its outcome. A single-group tier also prints the fault \
           plan and verifies that it replays deterministically.")

let base_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "base-seed" ] ~docv:"N" ~doc:"First seed of the batch.")

let steps_arg =
  Arg.(
    value & opt int 1_200
    & info [ "steps" ] ~docv:"N" ~doc:"Scheduling steps per schedule.")

let tier_arg =
  Arg.(
    value
    & opt (some ~none:"both" (enum Tier.names)) None
    & info [ "tier" ] ~docv:"TIER"
        ~doc:
          "Tier to run: $(b,counter), $(b,kv) or $(b,both) (one replica group, \
           DESIGN.md §8), $(b,overload) (admission control, §13), $(b,xshard) \
           (2PC over 3 groups, §16) or $(b,reshard) (live split/merge, §17). \
           --drift and --lease-ms reach the first three, --steps the first four.")

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
          "Demo: disable request deduplication, find a counter schedule that \
           catches the resulting double-commit, and shrink it to a minimal fault \
           plan. Takes none of --tier, --seed and --trace-dump.")

let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let trace_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dump" ] ~docv:"FILE"
        ~doc:
          "With --seed: record the replicas' lifecycle spans (virtual-clock \
           timestamps, deterministic per seed) and dump them as JSONL to \
           $(docv), suffixed .counter and .kv for --tier both.")

let cmd =
  let doc = "Nemesis stress harness for the replicated-service protocol" in
  Cmd.v
    (Cmd.info "grid-stress" ~doc)
    Term.(
      ret
        (const main $ schedules_arg $ seed_arg $ base_seed_arg $ steps_arg $ tier_arg
       $ drift_arg $ lease_ms_arg $ plant_arg $ quiet_arg $ trace_dump_arg))

let () = exit (Cmd.eval' cmd)
