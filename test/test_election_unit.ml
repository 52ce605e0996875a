(* Engine-level election and T-Paxos edge cases, driven by hand through
   the harness: dueling candidates, prepare retransmission, recovered
   leaders deferring to the incumbent, and transaction-branch mechanics
   at the engine level. *)

module H = Engine_harness
module Kv = Grid_services.Kv_store
module Counter = Grid_services.Counter
module Replica = Grid_paxos.Replica.Make (Counter)
module Ids = Grid_util.Ids
module Wire = Grid_codec.Wire
open Grid_paxos.Types

let add n = Counter.encode_op (Counter.Add n)

(* Start a candidacy on replica [i] without delivering anything. *)
let start_candidacy t i =
  H.feed t i (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t i (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t i (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t i (function Stability_check _ -> true | _ -> false))

let test_dueling_candidates () =
  (* Two replicas start prepares concurrently; ballots are totally
     ordered, so exactly one wins and the other steps down. *)
  let t = H.create () in
  start_candidacy t 0;
  start_candidacy t 1;
  (* Interleave deliveries arbitrarily; drain everything. *)
  H.deliver_all t;
  let leaders =
    List.filter (fun i -> Replica.is_leader t.replicas.(i)) [ 0; 1; 2 ]
  in
  Alcotest.(check int) "exactly one leader" 1 (List.length leaders);
  (* The survivor can commit. *)
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 1) ());
  H.deliver_all t;
  Alcotest.(check int) "commits" 1 (Replica.commit_point t.replicas.(List.hd leaders))

let test_prepare_retry_idempotent () =
  let t = H.create () in
  start_candidacy t 0;
  (* Fire the prepare retry before any delivery: duplicate prepares. *)
  ignore (H.fire t 0 (function Prepare_retry _ -> true | _ -> false));
  H.deliver_all t;
  Alcotest.(check bool) "leader despite duplicates" true (Replica.is_leader t.replicas.(0));
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 2) ());
  H.deliver_all t;
  Alcotest.(check int) "still works" 2 (Replica.state t.replicas.(0))

let test_ballot_strictly_increases () =
  let t = H.create () in
  H.elect t 0;
  let b0 = Replica.ballot t.replicas.(0) in
  (* Depose and re-elect via replica 1. *)
  start_candidacy t 1;
  H.deliver_all t;
  let b1 = Replica.ballot t.replicas.(1) in
  Alcotest.(check bool) "new ballot higher" true (Ballot.compare b1 b0 > 0);
  Alcotest.(check bool) "r1 leads" true (Replica.is_leader t.replicas.(1));
  Alcotest.(check bool) "r0 deposed" false (Replica.is_leader t.replicas.(0))

let test_recovered_leader_defers_to_incumbent () =
  (* §3.6 stability: after its heartbeats spread the new leader's
     promise, the recovered old leader does not attempt a takeover. *)
  let t = H.create () in
  H.elect t 0;
  (* r0 "crashes": drop its traffic, elect r1. *)
  H.drop t ~filter:(fun src dst _ -> src = 0 || dst = 0);
  start_candidacy t 1;
  H.deliver_all ~filter:(fun src dst _ -> src <> 0 && dst <> 0) t;
  Alcotest.(check bool) "r1 leads" true (Replica.is_leader t.replicas.(1));
  (* r0 "recovers" (restart) and hears r1's heartbeat. *)
  H.absorb t 0 (Replica.restart t.replicas.(0) ~now:t.now);
  ignore (H.fire t 1 (function Hb_tick -> true | _ -> false));
  H.deliver_all t;
  (* r0's suspicion tick must now pick r1 (the incumbent) as candidate,
     not itself, so no Stability_check gets armed. *)
  H.feed t 0 (Timer Suspicion_tick);
  H.advance t 200.0;
  ignore (H.fire t 1 (function Hb_tick -> true | _ -> false));
  H.deliver_all t;
  H.feed t 0 (Timer Suspicion_tick);
  let armed_takeover =
    List.exists
      (fun (i, timer) ->
        i = 0 && match timer with Stability_check _ -> true | _ -> false)
      t.timers
  in
  Alcotest.(check bool) "no takeover attempt" false armed_takeover;
  Alcotest.(check bool) "r1 still leads" true (Replica.is_leader t.replicas.(1))

(* Event-driven candidacy: a heartbeat re-evaluates candidacy at once,
   with no [Suspicion_tick] fired anywhere in these tests. *)

let cfg = Grid_paxos.Config.make ~n:3 ()

let armed t i =
  List.exists
    (fun (j, timer) -> j = i && match timer with Stability_check _ -> true | _ -> false)
    t.H.timers

(* [src] broadcasts its next heartbeat; only the copy to [dst] arrives. *)
let heartbeat t ~src ~dst =
  ignore (H.fire t src (function Hb_tick -> true | _ -> false));
  let is_hb s m = s = src && msg_kind m = "heartbeat" in
  H.deliver_all ~filter:(fun s d m -> is_hb s m && d = dst) t;
  H.drop t ~filter:(fun s _ m -> is_hb s m)

let test_cold_start_heartbeat_arms () =
  let t = H.create () in
  H.advance t 1.0;
  heartbeat t ~src:0 ~dst:1;
  Alcotest.(check bool) "r1 hearing r0 arms nothing" false (armed t 1);
  heartbeat t ~src:1 ~dst:0;
  Alcotest.(check bool) "r0 armed by r1's heartbeat" true (armed t 0);
  H.advance t cfg.stability_ms;
  ignore (H.fire t 0 (function Stability_check _ -> true | _ -> false));
  H.deliver_all t;
  Alcotest.(check bool) "r0 elected" true (Replica.is_leader t.replicas.(0))

let test_silent_leader_noticed_on_heartbeat () =
  let t = H.create () in
  H.elect t 0;
  (* r0 goes silent; r2's heartbeats keep reaching r1. *)
  H.drop t ~filter:(fun src dst _ -> src = 0 || dst = 0);
  H.advance t (cfg.suspicion_ms /. 2.0);
  heartbeat t ~src:2 ~dst:1;
  Alcotest.(check bool) "leader not yet suspected" false (armed t 1);
  H.advance t ((cfg.suspicion_ms /. 2.0) +. 1.0);
  heartbeat t ~src:2 ~dst:1;
  Alcotest.(check bool) "r1 armed on r2's heartbeat" true (armed t 1);
  heartbeat t ~src:1 ~dst:2;
  Alcotest.(check bool) "r2 defers to r1" false (armed t 2);
  H.advance t cfg.stability_ms;
  ignore (H.fire t 1 (function Stability_check _ -> true | _ -> false));
  H.deliver_all ~filter:(fun src dst _ -> src <> 0 && dst <> 0) t;
  Alcotest.(check bool) "r1 elected" true (Replica.is_leader t.replicas.(1))

(* Fresh full view: with every replica heard and no ballot anywhere, the
   lowest id prepares at once instead of waiting out the hold-down. Each
   case pairs the rule with a state that keeps the hold-down. *)

let role t i = Replica.role_name t.H.replicas.(i)

let test_fresh_full_view_prepares () =
  let t = H.create () in
  H.advance t 1.0;
  heartbeat t ~src:1 ~dst:0;
  Alcotest.(check bool) "r0 hearing only r1 arms the hold-down" true (armed t 0);
  Alcotest.(check string) "and waits" "follower" (role t 0);
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check string) "r2's heartbeat completes the view: r0 prepares" "candidate"
    (role t 0);
  Alcotest.(check bool) "its stability check has not fired" true (armed t 0);
  H.deliver_all t;
  Alcotest.(check bool) "r0 elected" true (Replica.is_leader t.replicas.(0))

let test_full_view_defers_to_lowest () =
  let t = H.create () in
  H.advance t 1.0;
  List.iter
    (fun (dst, srcs) -> List.iter (fun src -> heartbeat t ~src ~dst) srcs)
    [ (1, [ 0; 2 ]); (2, [ 0; 1 ]) ];
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "r%d arms nothing" i) false (armed t i);
      Alcotest.(check string) (Printf.sprintf "r%d defers to r0" i) "follower" (role t i))
    [ 1; 2 ];
  heartbeat t ~src:1 ~dst:0;
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check string) "r0 prepares" "candidate" (role t 0)

(* r0 hears one heartbeat from each peer, each carrying [round] and no
   promise (as from a peer that refused a prepare during a lease). *)
let full_view_at ~round =
  let t = H.create () in
  List.iter
    (fun src ->
      H.feed t 0
        (Receive
           {
             src;
             msg =
               Heartbeat
                 {
                   round_seen = round;
                   commit_point = 0;
                   promised = Ballot.zero;
                   sent_at = t.now;
                   lease_anchor = Float.nan;
                 };
           }))
    [ 1; 2 ];
  t

let test_seen_ballot_keeps_hold_down () =
  Alcotest.(check string) "round 0 everywhere: r0 prepares" "candidate"
    (role (full_view_at ~round:0) 0);
  let t = full_view_at ~round:1 in
  Alcotest.(check bool) "a heartbeat at round 1 arms the hold-down" true (armed t 0);
  Alcotest.(check string) "and r0 waits" "follower" (role t 0);
  (* Restarted over its own persisted promise: r0 is the incumbent, so it
     is the candidate, but a ballot exists. *)
  let t = H.create () in
  Replica.load t.replicas.(0)
    {
      Grid_paxos.Storage.promised = Ballot.make ~round:1 ~holder:0;
      entries = [];
      commit_point = 0;
      snapshot = None;
    };
  heartbeat t ~src:1 ~dst:0;
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check bool) "a persisted promise arms the hold-down" true (armed t 0);
  Alcotest.(check string) "and r0 waits" "follower" (role t 0)

let test_lease_blackout_blocks_fast_path () =
  let lease_ms = 200.0 in
  let t = H.create ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~lease_ms ()) () in
  H.absorb t 0 (Replica.restart t.replicas.(0) ~now:t.now);
  heartbeat t ~src:1 ~dst:0;
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check string) "blackout blocks the fast path" "follower" (role t 0);
  H.advance t cfg.stability_ms;
  ignore (H.fire t 0 (function Stability_check _ -> true | _ -> false));
  Alcotest.(check string) "and the stability check" "follower" (role t 0);
  H.advance t lease_ms;
  heartbeat t ~src:1 ~dst:0;
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check string) "after the blackout r0 prepares at once" "candidate" (role t 0)

let test_single_replica_elects_at_first_tick () =
  let t = H.create ~n:1 () in
  ignore (H.fire t 0 (function Suspicion_tick -> true | _ -> false));
  Alcotest.(check bool) "leader at its first suspicion tick" true
    (Replica.is_leader t.replicas.(0))

(* The check armed when r0 first hears a peer outlives the candidacy its
   full view completes; r0 is deposed and, once its deposer falls
   silent, arms a newer candidacy. The old check fires first and must
   leave the newer one alone. *)
let test_stale_stability_check_ignored () =
  let stability_ms = 200.0 in
  let t =
    H.create ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~stability_ms ()) ()
  in
  heartbeat t ~src:1 ~dst:0;
  H.advance t 1.0;
  heartbeat t ~src:2 ~dst:0;
  Alcotest.(check string) "r0 prepares on its full view" "candidate" (role t 0);
  H.advance t 1.0;
  H.feed t 0 (Receive { src = 1; msg = Reject { promised = Ballot.make ~round:1 ~holder:1 } });
  Alcotest.(check string) "deposed by r1" "follower" (role t 0);
  H.advance t (cfg.suspicion_ms +. 1.0);
  H.feed t 0 (Timer Suspicion_tick);
  let rearmed_at = t.now in
  Alcotest.(check bool) "r1 suspected: a newer candidacy" true (armed t 0);
  (* The check armed at time 0 falls due first. *)
  t.now <- stability_ms;
  ignore (H.fire t 0 (function Stability_check _ -> true | _ -> false));
  Alcotest.(check string) "the stale check is ignored" "follower" (role t 0);
  t.now <- rearmed_at +. stability_ms;
  ignore (H.fire t 0 (function Stability_check _ -> true | _ -> false));
  Alcotest.(check string) "the newer check prepares" "candidate" (role t 0)

let test_commit_alone_does_not_elect () =
  (* A replica that merely observes commits from a leader never tries to
     lead while those commits keep arriving (liveness of followership). *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 1) ());
  H.deliver_all t;
  Alcotest.(check bool) "r2 follower" false (Replica.is_leader t.replicas.(2));
  Alcotest.(check (option int)) "r2 sees r0 as leader" (Some 0)
    (Replica.leader_view t.replicas.(2))

(* ------------------------------------------------------------------ *)
(* T-Paxos engine mechanics over the KV service. *)

module HK = Engine_harness.Make (Kv)

let commit_payload n = Wire.encode (fun e -> Wire.Encoder.uint e n)

let test_txn_ops_no_coordination () =
  (* Engine-level §3.5: transaction ops generate ZERO inter-replica
     messages; only the commit does. *)
  let t = HK.create () in
  HK.elect t 0;
  HK.submit t (HK.client_request ~seq:1 ~rtype:(Txn_op 1)
                 ~payload:(Kv.encode_op (Kv.Put { key = "a"; value = "1" })) ());
  Alcotest.(check int) "op answered immediately" 1 (List.length (HK.take_replies t));
  let non_hb =
    List.filter (fun (_, _, m) -> msg_kind m <> "heartbeat") t.pending
  in
  Alcotest.(check int) "no coordination traffic for ops" 0 (List.length non_hb);
  HK.submit t (HK.client_request ~seq:2 ~rtype:(Txn_commit 1) ~payload:(commit_payload 1) ());
  let accepts = List.filter (fun (_, _, m) -> msg_kind m = "accept") t.pending in
  Alcotest.(check int) "commit broadcasts accepts" 2 (List.length accepts);
  HK.deliver_all t;
  Alcotest.(check int) "commit answered" 1 (List.length (HK.take_replies t));
  Alcotest.(check (option string)) "applied everywhere" (Some "1")
    (Kv.find (HK.Replica.state t.replicas.(2)) "a")

let test_txn_op_count_guard () =
  (* A commit whose op count disagrees with what the leader recorded is
     aborted (protects against partial branches after a switch). *)
  let t = HK.create () in
  HK.elect t 0;
  HK.submit t (HK.client_request ~seq:1 ~rtype:(Txn_op 1)
                 ~payload:(Kv.encode_op (Kv.Put { key = "a"; value = "1" })) ());
  ignore (HK.take_replies t);
  HK.submit t (HK.client_request ~seq:2 ~rtype:(Txn_commit 1) ~payload:(commit_payload 3) ());
  HK.deliver_all t;
  (match HK.take_replies t with
  | [ r ] -> Alcotest.(check bool) "aborted" true (r.status = Txn_aborted)
  | _ -> Alcotest.fail "expected one reply");
  Alcotest.(check (option string)) "nothing applied" None
    (Kv.find (HK.Replica.state t.replicas.(0)) "a")

let test_txn_abort_unknown () =
  let t = HK.create () in
  HK.elect t 0;
  HK.submit t (HK.client_request ~seq:1 ~rtype:(Txn_commit 9) ~payload:(commit_payload 0) ());
  HK.deliver_all t;
  match HK.take_replies t with
  | [ r ] -> Alcotest.(check bool) "unknown txn aborted" true (r.status = Txn_aborted)
  | _ -> Alcotest.fail "expected one reply"

let test_txn_explicit_abort_discards_branch () =
  let t = HK.create () in
  HK.elect t 0;
  HK.submit t (HK.client_request ~seq:1 ~rtype:(Txn_op 1)
                 ~payload:(Kv.encode_op (Kv.Put { key = "x"; value = "v" })) ());
  ignore (HK.take_replies t);
  HK.submit t (HK.client_request ~seq:2 ~rtype:(Txn_abort 1) ~payload:"" ());
  (match HK.take_replies t with
  | [ r ] -> Alcotest.(check bool) "abort acked" true (r.status = Txn_aborted)
  | _ -> Alcotest.fail "expected abort ack");
  (* A commit after the abort is an unknown transaction. *)
  HK.submit t (HK.client_request ~seq:3 ~rtype:(Txn_commit 1) ~payload:(commit_payload 1) ());
  HK.deliver_all t;
  match HK.take_replies t with
  | [ r ] -> Alcotest.(check bool) "post-abort commit rejected" true (r.status = Txn_aborted)
  | _ -> Alcotest.fail "expected one reply"

let suite =
  [
    ( "election.engine",
      [
        Alcotest.test_case "dueling candidates" `Quick test_dueling_candidates;
        Alcotest.test_case "prepare retry idempotent" `Quick test_prepare_retry_idempotent;
        Alcotest.test_case "ballots strictly increase" `Quick test_ballot_strictly_increases;
        Alcotest.test_case "recovered leader defers (§3.6)" `Quick
          test_recovered_leader_defers_to_incumbent;
        Alcotest.test_case "followers stay followers" `Quick
          test_commit_alone_does_not_elect;
        Alcotest.test_case "cold start: heartbeat arms the lowest id" `Quick
          test_cold_start_heartbeat_arms;
        Alcotest.test_case "silent leader noticed on next heartbeat" `Quick
          test_silent_leader_noticed_on_heartbeat;
        Alcotest.test_case "fresh full view: lowest id prepares at once" `Quick
          test_fresh_full_view_prepares;
        Alcotest.test_case "fresh full view: the others defer" `Quick
          test_full_view_defers_to_lowest;
        Alcotest.test_case "a seen ballot keeps the hold-down" `Quick
          test_seen_ballot_keeps_hold_down;
        Alcotest.test_case "lease blackout blocks the fast path" `Quick
          test_lease_blackout_blocks_fast_path;
        Alcotest.test_case "n = 1 elects at its first tick" `Quick
          test_single_replica_elects_at_first_tick;
        Alcotest.test_case "stale stability check ignored" `Quick
          test_stale_stability_check_ignored;
      ] );
    ( "txn.engine",
      [
        Alcotest.test_case "ops need no coordination (§3.5)" `Quick
          test_txn_ops_no_coordination;
        Alcotest.test_case "op-count guard" `Quick test_txn_op_count_guard;
        Alcotest.test_case "unknown txn aborts" `Quick test_txn_abort_unknown;
        Alcotest.test_case "explicit abort discards branch" `Quick
          test_txn_explicit_abort_discards_branch;
      ] );
  ]
