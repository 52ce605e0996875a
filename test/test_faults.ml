(* Fault-injection integration tests: leader crashes, recovery and
   catch-up, partitions, message loss, and durable-storage reload. *)

module Config = Grid_paxos.Config
module Storage = Grid_paxos.Storage
module Scenario = Grid_runtime.Scenario
module Network = Grid_sim.Network
module Counter = Grid_services.Counter
open Grid_paxos.Types

module RT = Grid_runtime.Runtime.Make (Counter)
module Replica = Grid_paxos.Replica.Make (Counter)

let cfg () = Config.make ~n:3 ~record_history:true ()

let add_ops n = List.init n (fun _ -> Counter.Add 1)

let gen_of ops ~client:_ =
  let remaining = ref ops in
  fun () ->
    match !remaining with
    | [] -> None
    | op :: rest ->
      remaining := rest;
      Some (Grid_runtime.Runtime.Do op)

let assert_agreement t =
  let histories = Array.init 3 (fun i -> RT.R.committed_updates (RT.replica t i)) in
  let violations = Grid_check.Agreement.check histories in
  Alcotest.(check int)
    (String.concat "; "
       (List.map (Format.asprintf "%a" Grid_check.Agreement.pp_violation) violations))
    0 (List.length violations)

(* ------------------------------------------------------------------ *)

let test_leader_crash_failover () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  let leader = Option.get (RT.await_leader t) in
  Alcotest.(check int) "r0 leads" 0 leader;
  (* Crash the leader mid-workload. *)
  ignore
    (Grid_sim.Engine.schedule (RT.engine t) ~delay:30.0 (fun () -> RT.crash_replica t 0));
  let results =
    RT.run_closed_loop_ops t ~clients:2 ~requests_per_client:25 ~gen:(gen_of (add_ops 25))
  in
  Alcotest.(check int) "all requests served across the switch" 50
    results.total_completed;
  let new_leader = Option.get (RT.await_leader t) in
  Alcotest.(check bool) "a backup took over" true (new_leader <> 0);
  RT.run_until t (RT.now t +. 1_000.0);
  Alcotest.(check int) "r1 state" 50 (RT.R.state (RT.replica t 1));
  Alcotest.(check int) "r2 state" 50 (RT.R.state (RT.replica t 2))

(* Candidacy is evaluated as heartbeats arrive: on Sysnet a cold start
   elects r0 as soon as its view is full — no ballot exists yet, so it
   skips the stability hold-down and the first leader takes a few link
   round trips — while a failover keeps the hold-down and adds at most
   one heartbeat period to the suspicion timeout. The crash lands at a
   different heartbeat phase for each seed. *)
let test_election_timing () =
  let c = cfg () in
  let slack = 2.0 in
  List.iter
    (fun seed ->
      let t = RT.create ~seed ~cfg:c ~scenario:Scenario.sysnet () in
      Alcotest.(check (option int)) "r0 leads first" (Some 0) (RT.await_leader t);
      let elected = RT.now t in
      if elected > slack then
        Alcotest.failf "seed %d: first leader at %.2f ms" seed elected;
      let crash_at = 500.0 +. Float.of_int (7 * seed) in
      RT.run_until t crash_at;
      RT.crash_replica t 0;
      (match RT.await_leader t with
      | Some l -> Alcotest.(check bool) "a backup took over" true (l <> 0)
      | None -> Alcotest.failf "seed %d: no leader after the crash" seed);
      let bound = c.suspicion_ms +. c.hb_period_ms +. c.stability_ms +. slack in
      let took = RT.now t -. crash_at in
      if took > bound then
        Alcotest.failf "seed %d: failover took %.2f ms (bound %.2f)" seed took bound)
    [ 1; 2; 3; 4; 5; 6 ]

let test_crashed_leader_recovers_and_catches_up () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  ignore (Grid_sim.Engine.schedule (RT.engine t) ~delay:20.0 (fun () -> RT.crash_replica t 0));
  let results =
    RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:30 ~gen:(gen_of (add_ops 30))
  in
  Alcotest.(check int) "served" 30 results.total_completed;
  (* Bring r0 back; drive some more traffic so commits (and catch-up)
     reach it, then compare states. *)
  RT.recover_replica t 0;
  let results2 =
    RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:10 ~gen:(gen_of (add_ops 10))
  in
  Alcotest.(check int) "post-recovery traffic served" 10 results2.total_completed;
  RT.run_until t (RT.now t +. 2_000.0);
  Alcotest.(check int) "recovered replica caught up" 40 (RT.R.state (RT.replica t 0));
  assert_agreement t

let test_follower_crash_no_disruption () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  ignore (Grid_sim.Engine.schedule (RT.engine t) ~delay:10.0 (fun () -> RT.crash_replica t 2));
  let results =
    RT.run_closed_loop_ops t ~clients:2 ~requests_per_client:20 ~gen:(gen_of (add_ops 20))
  in
  Alcotest.(check int) "2-of-3 majority suffices" 40 results.total_completed;
  Alcotest.(check (option int)) "leader unchanged" (Some 0) (RT.leader t);
  RT.recover_replica t 2;
  let _ = RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:5 ~gen:(gen_of (add_ops 5)) in
  RT.run_until t (RT.now t +. 2_000.0);
  Alcotest.(check int) "follower rejoined and caught up" 45
    (RT.R.state (RT.replica t 2));
  assert_agreement t

let test_repeated_leader_crashes () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  (* Crash whoever leads, three times, with recovery in between. *)
  let eng = RT.engine t in
  let rec schedule_crash round =
    if round < 3 then
      ignore
        (Grid_sim.Engine.schedule eng ~delay:(80.0 +. (400.0 *. Float.of_int round))
           (fun () ->
             match RT.leader t with
             | Some l ->
               RT.crash_replica t l;
               ignore
                 (Grid_sim.Engine.schedule eng ~delay:200.0 (fun () ->
                      RT.recover_replica t l));
               schedule_crash (round + 1)
             | None -> schedule_crash round))
  in
  schedule_crash 0;
  let results =
    RT.run_closed_loop_ops t ~max_sim_ms:60_000.0 ~clients:2 ~requests_per_client:40
      ~gen:(gen_of (add_ops 40))
  in
  Alcotest.(check int) "all served across repeated switches" 80 results.total_completed;
  RT.run_until t (RT.now t +. 3_000.0);
  assert_agreement t;
  (* All live replicas converge. *)
  let states = List.init 3 (fun i -> RT.R.state (RT.replica t i)) in
  Alcotest.(check (list int)) "states converged" [ 80; 80; 80 ] states

let test_partition_minority_leader () =
  (* Cut the leader away from both followers: it must not commit anything
     new; the majority side elects a new leader and continues. *)
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let net = RT.network t in
  ignore
    (Grid_sim.Engine.schedule (RT.engine t) ~delay:25.0 (fun () ->
         Network.partition net [ 0 ] [ 1; 2 ]));
  let results =
    RT.run_closed_loop_ops t ~max_sim_ms:60_000.0 ~clients:1 ~requests_per_client:20
      ~gen:(gen_of (add_ops 20))
  in
  Alcotest.(check int) "majority side serves everything" 20 results.total_completed;
  let new_leader = RT.leader t in
  Alcotest.(check bool) "one of the majority leads" true
    (new_leader = Some 1 || new_leader = Some 2
    || (* the deposed leader may still believe it leads inside the
          partition; the majority side must have its own leader *)
    (RT.R.is_leader (RT.replica t 1) || RT.R.is_leader (RT.replica t 2)));
  (* Heal: the old leader must step down (its ballot is stale) and
     converge. *)
  Network.heal net;
  RT.run_until t (RT.now t +. 3_000.0);
  let _ = RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:5 ~gen:(gen_of (add_ops 5)) in
  RT.run_until t (RT.now t +. 3_000.0);
  assert_agreement t;
  Alcotest.(check int) "old leader converged" 25 (RT.R.state (RT.replica t 0))

let test_message_loss_resilience () =
  let c = Config.make ~base:(cfg ()) ~accept_retry_ms:15.0 ~client_retry_ms:60.0 () in
  let t = RT.create ~cfg:c ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  Network.set_drop_rate (RT.network t) 0.25;
  let results =
    RT.run_closed_loop_ops t ~max_sim_ms:120_000.0 ~clients:2 ~requests_per_client:15
      ~gen:(gen_of (add_ops 15))
  in
  Alcotest.(check int) "all served despite 25% loss" 30 results.total_completed;
  Network.set_drop_rate (RT.network t) 0.0;
  RT.run_until t (RT.now t +. 3_000.0);
  assert_agreement t;
  Alcotest.(check (list int)) "states converged" [ 30; 30; 30 ]
    (List.init 3 (fun i -> RT.R.state (RT.replica t i)))

let test_duplication_and_reordering () =
  (* Retransmission-style duplicates, FIFO-escaping reorders and delay
     spikes on every link: every request still commits exactly once. *)
  let c = Config.make ~base:(cfg ()) ~accept_retry_ms:15.0 ~client_retry_ms:60.0 () in
  let t = RT.create ~cfg:c ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let net = RT.network t in
  Network.set_duplicate_rate net 0.2;
  Network.set_reorder_rate net 0.2;
  Network.set_delay_spike net ~rate:0.05 ~magnitude_ms:40.0;
  let results =
    RT.run_closed_loop_ops t ~max_sim_ms:120_000.0 ~clients:2 ~requests_per_client:15
      ~gen:(gen_of (add_ops 15))
  in
  Alcotest.(check int) "all served" 30 results.total_completed;
  (* Quiesce over clean links so every replica converges. *)
  Network.set_duplicate_rate net 0.0;
  Network.set_reorder_rate net 0.0;
  Network.set_delay_spike net ~rate:0.0 ~magnitude_ms:0.0;
  RT.run_until t (RT.now t +. 3_000.0);
  assert_agreement t;
  (* Exactly-once: the +1 increments are not double-applied even though a
     fifth of all messages (client requests included) arrived twice. *)
  Alcotest.(check (list int)) "states converged, no double-apply" [ 30; 30; 30 ]
    (List.init 3 (fun i -> RT.R.state (RT.replica t i)));
  let s = Network.stats net in
  Alcotest.(check bool) "duplicates injected" true (s.Network.duplicated > 0);
  Alcotest.(check bool) "reorders injected" true (s.Network.reordered > 0);
  Alcotest.(check bool) "delay spikes injected" true (s.Network.delayed > 0)

(* ------------------------------------------------------------------ *)
(* Durable storage: a replica reloads its state from disk. *)

let test_file_storage_reload () =
  let dir = Filename.temp_file "grid_reload" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "r0" in
      let c = Config.make ~n:3 ~snapshot_interval:5 () in
      (* Phase 1: drive a replica directly through the engine API with a
         file store, simulating the leader's persistence. *)
      let store, _, _ = Storage.file ~path in
      let r = Replica.create ~cfg:c ~id:0 () in
      ignore (Replica.bootstrap r);
      (* Apply each step's records to the store; the sends go nowhere. *)
      let persist { persist; out = _ } = List.iter (Storage.apply store) persist in
      (* Manufacture commits by feeding the engine a full leader cycle:
         promote r0 to leader via timers, then have clients write. *)
      let fire timer = persist (Replica.handle r ~now:0.0 (Timer timer)) in
      fire Suspicion_tick;
      persist (Replica.handle r ~now:100.0 (Timer Suspicion_tick));
      persist (Replica.handle r ~now:200.0 (Timer (Stability_check 0)));
      (* r0 is now candidate; feed prepare acks from 1 and 2. *)
      let b = Replica.ballot r in
      let ack src =
        persist
          (Replica.handle r ~now:210.0
             (Receive
                {
                  src;
                  msg =
                    Prepare_ack { ballot = b; commit_point = 0; snapshot = None; accepted = [] };
                }))
      in
      ack 1;
      Alcotest.(check bool) "leader after majority" true (Replica.is_leader r);
      (* Three writes, each accepted by replica 1. *)
      for seq = 1 to 3 do
        let req =
          {
            id = Grid_util.Ids.Request_id.make ~client:(Grid_util.Ids.Client_id.of_int 1) ~seq;
            rtype = Write;
            payload = Counter.encode_op (Counter.Add 10);
            trace = no_trace;
          }
        in
        persist
          (Replica.handle r ~now:(220.0 +. Float.of_int seq)
             (Receive { src = client_node req.id.client; msg = Client_req req }));
        persist
          (Replica.handle r ~now:(221.0 +. Float.of_int seq)
             (Receive
                {
                  src = 1;
                  msg = Accept_ack { ballot = Replica.ballot r; instance = seq };
                }))
      done;
      Alcotest.(check int) "three commits" 3 (Replica.commit_point r);
      Alcotest.(check int) "state 30" 30 (Replica.state r);
      (* Phase 2: "restart the process" — a fresh replica loads the files. *)
      let _store2, recovered, _ = Storage.file ~path in
      let r2 = Replica.create ~cfg:c ~id:0 () in
      (match recovered with
      | Some p -> Replica.load r2 p
      | None -> Alcotest.fail "expected persisted image");
      Alcotest.(check int) "commit point restored" 3 (Replica.commit_point r2);
      Alcotest.(check int) "state restored" 30 (Replica.state r2);
      Alcotest.(check bool) "promise restored" true
        (Ballot.compare (Replica.promised r2) Ballot.zero > 0))

let suite =
  [
    ( "faults.crashes",
      [
        Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
        Alcotest.test_case "election timing (Sysnet)" `Quick test_election_timing;
        Alcotest.test_case "crashed leader recovers + catches up" `Quick
          test_crashed_leader_recovers_and_catches_up;
        Alcotest.test_case "follower crash tolerated" `Quick
          test_follower_crash_no_disruption;
        Alcotest.test_case "repeated leader crashes" `Quick test_repeated_leader_crashes;
      ] );
    ( "faults.network",
      [
        Alcotest.test_case "partitioned minority leader" `Quick
          test_partition_minority_leader;
        Alcotest.test_case "25% message loss" `Quick test_message_loss_resilience;
        Alcotest.test_case "duplication + reordering + delay spikes" `Quick
          test_duplication_and_reordering;
      ] );
    ( "faults.durability",
      [ Alcotest.test_case "file-storage reload" `Quick test_file_storage_reload ] );
  ]
