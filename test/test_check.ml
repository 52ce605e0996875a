(* Tests for the checkers themselves, plus the randomized-schedule
   exploration of the protocol (the heavyweight safety net). *)

module Agreement = Grid_check.Agreement
module Lin = Grid_check.Linearizability
module MC = Grid_check.Mcheck.Make (Grid_services.Counter)
module Counter = Grid_services.Counter
module Ids = Grid_util.Ids
open Grid_paxos.Types

let mk_req seq : request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq;
    rtype = Write; payload = "p"; trace = no_trace }

(* ------------------------------------------------------------------ *)
(* Agreement checker *)

let test_agreement_clean () =
  let h = [ (1, [ mk_req 1 ], "s1"); (2, [ mk_req 2 ], "s2") ] in
  Alcotest.(check int) "no violations" 0 (List.length (Agreement.check [| h; h; h |]))

let test_agreement_value_mismatch () =
  let a = [ (1, [ mk_req 1 ], "s1") ] in
  let b = [ (1, [ mk_req 2 ], "s1") ] in
  match Agreement.check [| a; b |] with
  | [ Agreement.Value_mismatch { instance = 1; _ } ] -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected value mismatch, got %d" (List.length v))

let test_agreement_state_mismatch () =
  let a = [ (1, [ mk_req 1 ], "s1") ] in
  let b = [ (1, [ mk_req 1 ], "DIFFERENT") ] in
  match Agreement.check [| a; b |] with
  | [ Agreement.State_mismatch { instance = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected state mismatch"

let test_agreement_hole_tolerated () =
  (* Snapshot catch-up leaves holes; not a violation. *)
  let full = [ (1, [ mk_req 1 ], "s1"); (2, [ mk_req 2 ], "s2"); (3, [ mk_req 3 ], "s3") ] in
  let holey = [ (1, [ mk_req 1 ], "s1"); (3, [ mk_req 3 ], "s3") ] in
  Alcotest.(check int) "hole ok" 0 (List.length (Agreement.check [| full; holey |]))

let test_agreement_order_violation () =
  let bad = [ (2, [ mk_req 2 ], "s2"); (1, [ mk_req 1 ], "s1") ] in
  match Agreement.check [| bad |] with
  | [ Agreement.Order { instance = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected order violation"

(* ------------------------------------------------------------------ *)
(* Linearizability checker *)

let ev client op result invoked_at responded_at =
  { Lin.client; op; result; invoked_at; responded_at }

let test_lin_sequential_ok () =
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 1.0;
      ev 1 Lin.Counter_model.Get 5 2.0 3.0;
      ev 1 (Lin.Counter_model.Add 2) 7 4.0 5.0;
    ]
  in
  Alcotest.(check bool) "sequential history linearizable" true (Lin.Counter.check h)

let test_lin_concurrent_ok () =
  (* Two overlapping adds; a concurrent read may see either serialization
     point. Result 5 is legal (read before the +2 took effect). *)
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 10.0;
      ev 2 (Lin.Counter_model.Add 2) 7 1.0 9.0;
      ev 3 Lin.Counter_model.Get 5 2.0 8.0;
    ]
  in
  Alcotest.(check bool) "concurrent history linearizable" true (Lin.Counter.check h)

let test_lin_stale_read_rejected () =
  (* The read starts strictly after the add completed, yet returns the
     pre-add value: not linearizable. *)
  let h =
    [
      ev 1 (Lin.Counter_model.Add 5) 5 0.0 1.0;
      ev 2 Lin.Counter_model.Get 0 2.0 3.0;
    ]
  in
  Alcotest.(check bool) "stale read rejected" false (Lin.Counter.check h)

let test_lin_wrong_result_rejected () =
  let h = [ ev 1 (Lin.Counter_model.Add 5) 99 0.0 1.0 ] in
  Alcotest.(check bool) "wrong result rejected" false (Lin.Counter.check h)

let test_lin_kv_model () =
  let open Lin.Kv_model in
  let h =
    [
      ev 1 (Put ("k", "v")) Ok 0.0 1.0;
      ev 2 (Get "k") (Found (Some "v")) 2.0 3.0;
      ev 1 (Del "k") Ok 4.0 5.0;
      ev 2 (Get "k") (Found None) 6.0 7.0;
    ]
  in
  Alcotest.(check bool) "kv history linearizable" true (Lin.Kv.check h);
  let bad = [ ev 1 (Put ("k", "v")) Ok 0.0 1.0; ev 2 (Get "k") (Found None) 2.0 3.0 ] in
  Alcotest.(check bool) "lost update rejected" false (Lin.Kv.check bad)

(* ------------------------------------------------------------------ *)
(* Randomized schedule exploration of the real protocol. *)

let mc_requests =
  [
    (1, Write, Counter.encode_op (Counter.Add 5));
    (2, Write, Counter.encode_op (Counter.Add 7));
    (1, Read, Counter.encode_op Counter.Get);
    (2, Write, Counter.encode_op (Counter.Add 1));
    (3, Read, Counter.encode_op Counter.Get);
  ]

let explore ~crash_prob ~seeds () =
  let violations = ref 0 and unreplied = ref 0 in
  for seed = 1 to seeds do
    let o = MC.explore ~seed ~steps:2_000
        ~nemesis:{ Grid_check.Mcheck.no_faults with crash_prob }
        ~requests:mc_requests () in
    if o.violations <> [] then incr violations;
    if not o.all_replied then incr unreplied
  done;
  (!violations, !unreplied)

let test_mcheck_benign () =
  let violations, unreplied = explore ~crash_prob:0.0 ~seeds:150 () in
  Alcotest.(check int) "no agreement violations" 0 violations;
  Alcotest.(check int) "all requests answered" 0 unreplied

let test_mcheck_with_crashes () =
  let violations, _unreplied = explore ~crash_prob:0.003 ~seeds:150 () in
  (* Liveness holds after the drain (crashes stop); safety always. *)
  Alcotest.(check int) "no agreement violations under crashes" 0 violations

let test_mcheck_deterministic_replay () =
  let run () =
    MC.explore ~seed:77 ~steps:1_500
      ~nemesis:{ Grid_check.Mcheck.no_faults with crash_prob = 0.002 }
      ~requests:mc_requests ()
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check int) "same deliveries" o1.delivered o2.delivered;
  Alcotest.(check int) "same timer fires" o1.timer_fires o2.timer_fires;
  Alcotest.(check (array int)) "same commit points" o1.committed o2.committed

(* The model checker's one storage fault, one engine step at a time: a
   step torn at k keeps exactly the first k of its records and runs none
   of its sends or timers, while earlier steps' records stay; an untorn
   step lands whole, and a step without records is never torn. *)
let test_mcheck_tear_at_k () =
  let module Storage = Grid_paxos.Storage in
  let ballot round = Ballot.make ~round ~holder:0 in
  let entry =
    { instance = 1; ballot = ballot 3;
      proposal = { requests = [ mk_req 1 ]; update = Full "s"; replies = [] } }
  in
  let send = Send { dst = 1; msg = Reject { promised = ballot 2 } } in
  let timer = After { delay = 1.0; timer = Hb_tick } in
  let step store tear persist out =
    Grid_check.Mcheck.persist_step store ~tear { persist; out }
  in
  let never _ = Alcotest.fail "a step without records must not be torn" in
  for k = 0 to 3 do
    let what = Printf.sprintf "k = %d" k in
    let store, read = Storage.memory () in
    Alcotest.(check bool) (what ^ ": untorn step keeps its other actions in order")
      true
      (step store (fun _ -> None) [ Promise (ballot 2); Commit_point 1 ] [ send; timer ]
       = Some [ send; timer ]);
    Alcotest.(check bool) (what ^ ": no records to tear") true
      (step store never [] [ send ] = Some [ send ]);
    let asked = ref 0 in
    let torn =
      step store
        (fun n ->
          asked := n;
          Some k)
        [ Promise (ballot 3); Entry entry; Commit_point 5 ]
        [ send; timer ]
    in
    Alcotest.(check int) (what ^ ": tear sees the step's records") 3 !asked;
    Alcotest.(check bool) (what ^ ": no send or timer runs") true (torn = None);
    let p = read () in
    Alcotest.(check int) (what ^ ": promise") (if k >= 1 then 3 else 2) p.promised.round;
    Alcotest.(check int) (what ^ ": entries") (if k >= 2 then 1 else 0)
      (List.length p.entries);
    Alcotest.(check int) (what ^ ": commit point") (if k >= 3 then 5 else 1)
      p.commit_point
  done

(* Convert model-checker replies into a counter history: each client's
   ops are sequential (program order via invocation windows), ordering
   across clients unknown, so cross-client events overlap fully. A
   retransmitted read may be answered twice (reads are not
   deduplicated); the client accepts the first reply. *)
let counter_history (replies : reply list) =
  let seen = Hashtbl.create 8 in
  let first_replies =
    List.filter
      (fun (r : reply) ->
        let key = (r.req.client, r.req.seq) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      replies
  in
  List.filter_map
    (fun (r : reply) ->
      let client = Grid_util.Ids.Client_id.to_int r.req.client in
      let seq = r.req.seq in
      let base = Float.of_int (seq * 10) in
      let op_of (_, rt, payload) =
        match rt with
        | Read -> Some Lin.Counter_model.Get
        | Write -> Some (Lin.Counter_model.Add
                           (match Counter.decode_op payload with
                           | Counter.Add n -> n
                           | Counter.Get -> 0))
        | _ -> None
      in
      let rec find i = function
        | [] -> None
        | ((c, _, _) as req) :: rest ->
          if c = client then
            if i = seq - 1 then op_of req else find (i + 1) rest
          else find i rest
      in
      match find 0 mc_requests with
      | Some op ->
        Some
          {
            Lin.client;
            op;
            result = Counter.decode_result r.payload;
            invoked_at = base;
            responded_at = base +. 1000.0;
          }
      | None -> None)
    first_replies

let test_mcheck_reads_linearizable () =
  for seed = 1 to 40 do
    let o = MC.explore ~seed ~steps:2_000
        ~nemesis:{ Grid_check.Mcheck.no_faults with crash_prob = 0.0 }
        ~requests:mc_requests () in
    if o.all_replied then
      (* Writes return the new counter value, so results are usable. *)
      if not (Lin.Counter.check (counter_history o.replies)) then
        Alcotest.fail (Printf.sprintf "seed %d: non-linearizable history" seed)
  done

(* ------------------------------------------------------------------ *)
(* Wire-codec model: every delivery roundtrips through the codec its
   link would negotiate over TCP; [upgrades] script rolling upgrades. *)

let test_mcheck_wire_static_versions () =
  (* Homogeneous and mixed static clusters: the per-link min-negotiated
     codec must roundtrip every message — zero wire errors, safety and
     liveness intact. *)
  List.iter
    (fun versions ->
      let label =
        String.concat "" (Array.to_list (Array.map string_of_int versions))
      in
      let o =
        MC.explore ~seed:11 ~steps:2_000 ~requests:mc_requests
          ~wire_versions:versions ()
      in
      Alcotest.(check int) (label ^ ": no violations") 0 (List.length o.violations);
      Alcotest.(check (list string)) (label ^ ": no wire errors") [] o.wire_errors;
      Alcotest.(check bool) (label ^ ": all replied") true o.all_replied)
    [ [| 1; 1; 1 |]; [| 2; 2; 2 |]; [| 1; 2; 1 |]; [| 2; 1; 2 |] ]

let test_mcheck_rolling_upgrade () =
  (* The acceptance scenario: 3 replicas start on V1 and are upgraded
     one at a time — each upgrade a crash-consistent bounce after which
     the victim speaks V2 — under a nemesis that also injects crashes,
     duplication and reordering. Safety oracles, the wire model and
     linearizability must stay green through every mixed-version
     configuration the cluster passes through. *)
  let nemesis =
    { Grid_check.Mcheck.no_faults with
      crash_prob = 0.002;
      dup_prob = 0.01;
      reorder_prob = 0.01;
    }
  in
  let upgrades = [ (400, 0, 2); (900, 1, 2); (1400, 2, 2) ] in
  for seed = 1 to 25 do
    let o =
      MC.explore ~seed ~steps:2_500 ~nemesis ~requests:mc_requests
        ~wire_versions:[| 1; 1; 1 |] ~upgrades ()
    in
    if o.violations <> [] then
      Alcotest.fail (Printf.sprintf "seed %d: agreement violation" seed);
    if o.wire_errors <> [] then
      Alcotest.fail
        (Printf.sprintf "seed %d: wire errors: %s" seed
           (String.concat "; " o.wire_errors));
    Alcotest.(check int)
      (Printf.sprintf "seed %d: all three upgrades fired" seed)
      3 o.upgraded;
    if not o.all_replied then
      Alcotest.fail (Printf.sprintf "seed %d: unreplied requests" seed);
    if not (Lin.Counter.check (counter_history o.replies)) then
      Alcotest.fail
        (Printf.sprintf "seed %d: non-linearizable mixed-version history" seed)
  done

let test_mcheck_upgrade_replay_deterministic () =
  (* A recorded plan containing Upgrade_at events replays exactly. *)
  let nemesis = { Grid_check.Mcheck.no_faults with crash_prob = 0.002 } in
  let upgrades = [ (300, 0, 2); (800, 1, 2) ] in
  let o1 =
    MC.explore ~seed:42 ~steps:1_500 ~nemesis ~requests:mc_requests
      ~wire_versions:[| 1; 1; 1 |] ~upgrades ()
  in
  Alcotest.(check bool) "plan records the upgrades" true
    (List.exists
       (function Grid_check.Mcheck.Upgrade_at _ -> true | _ -> false)
       o1.plan);
  let o2 =
    MC.explore ~seed:42 ~steps:1_500 ~nemesis ~requests:mc_requests
      ~wire_versions:[| 1; 1; 1 |] ~upgrades ~plan:o1.plan ()
  in
  Alcotest.(check bool) "same plan" true (o1.plan = o2.plan);
  Alcotest.(check int) "same upgrades" o1.upgraded o2.upgraded;
  Alcotest.(check int) "same deliveries" o1.delivered o2.delivered;
  Alcotest.(check (array int)) "same commit points" o1.committed o2.committed;
  Alcotest.(check (list string)) "replay also wire-clean" [] o2.wire_errors

let test_mcheck_drain_upgrade_replays () =
  (* A scripted upgrade scheduled after the nemesis stops fires during
     the drain; the drain turns the fault dice off but a replay keeps
     reading its plan, so the upgrade replays there too. *)
  let run ?plan () =
    MC.explore ~seed:42 ~steps:100 ~requests:mc_requests
      ~wire_versions:[| 1; 1; 1 |] ~upgrades:[ (110, 1, 2) ] ?plan ()
  in
  let o1 = run () in
  Alcotest.(check int) "the drain's upgrade fired" 1 o1.upgraded;
  let o2 = run ~plan:o1.plan () in
  Alcotest.(check bool) "same plan" true (o1.plan = o2.plan);
  Alcotest.(check int) "same deliveries" o1.delivered o2.delivered;
  Alcotest.(check (array int)) "same commit points" o1.committed o2.committed

let test_mcheck_replayed_crash_keeps_quorum () =
  (* A plan that lost the recovery between two crashes (as shrinking
     can) must not take two of the three replicas down: the second crash
     is skipped, as the dice would never roll it, and left out of the
     replay's plan. *)
  let module M = Grid_check.Mcheck in
  let plan =
    [ M.Crash_at { step = 10; victim = 0; torn = false };
      M.Crash_at { step = 20; victim = 1; torn = false } ]
  in
  let o = MC.explore ~seed:3 ~steps:400 ~requests:mc_requests ~plan () in
  Alcotest.(check int) "one crash fired" 1 o.crashes;
  Alcotest.(check int) "one event in the plan" 1 (List.length o.plan);
  Alcotest.(check bool) "the first crash kept" true (o.plan = [ List.hd plan ])

let suite =
  [
    ( "check.agreement",
      [
        Alcotest.test_case "clean histories" `Quick test_agreement_clean;
        Alcotest.test_case "value mismatch" `Quick test_agreement_value_mismatch;
        Alcotest.test_case "state mismatch" `Quick test_agreement_state_mismatch;
        Alcotest.test_case "snapshot hole tolerated" `Quick test_agreement_hole_tolerated;
        Alcotest.test_case "order violation" `Quick test_agreement_order_violation;
      ] );
    ( "check.linearizability",
      [
        Alcotest.test_case "sequential ok" `Quick test_lin_sequential_ok;
        Alcotest.test_case "concurrent ok" `Quick test_lin_concurrent_ok;
        Alcotest.test_case "stale read rejected" `Quick test_lin_stale_read_rejected;
        Alcotest.test_case "wrong result rejected" `Quick test_lin_wrong_result_rejected;
        Alcotest.test_case "kv model" `Quick test_lin_kv_model;
      ] );
    ( "check.mcheck",
      [
        Alcotest.test_case "150 benign schedules" `Slow test_mcheck_benign;
        Alcotest.test_case "150 crashy schedules" `Slow test_mcheck_with_crashes;
        Alcotest.test_case "seeded replay is deterministic" `Quick
          test_mcheck_deterministic_replay;
        Alcotest.test_case "tear keeps a prefix" `Quick test_mcheck_tear_at_k;
        Alcotest.test_case "a replayed crash keeps a quorum" `Quick
          test_mcheck_replayed_crash_keeps_quorum;
        Alcotest.test_case "reply histories linearizable" `Slow
          test_mcheck_reads_linearizable;
      ] );
    ( "check.mcheck_wire",
      [
        Alcotest.test_case "static version mixes clean" `Quick
          test_mcheck_wire_static_versions;
        Alcotest.test_case "rolling upgrade under nemesis" `Slow
          test_mcheck_rolling_upgrade;
        Alcotest.test_case "upgrade plans replay deterministically" `Quick
          test_mcheck_upgrade_replay_deterministic;
        Alcotest.test_case "an upgrade in the drain replays" `Quick
          test_mcheck_drain_upgrade_replays;
      ] );
  ]
