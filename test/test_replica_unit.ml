(* Engine-level protocol tests: precise scripted scenarios against single
   replica engines, including the paper's own §3.3 recovery narrative. *)

module H = Engine_harness
module Counter = Grid_services.Counter
module Replica = Grid_paxos.Replica.Make (Counter)
module Ids = Grid_util.Ids
open Grid_paxos.Types

let add n = Counter.encode_op (Counter.Add n)
let get = Counter.encode_op Counter.Get

let commit_n t ~start ~count =
  for seq = start to start + count - 1 do
    H.submit t (H.client_request ~seq ~rtype:Write ~payload:(add 1) ());
    H.deliver_all t
  done

(* ------------------------------------------------------------------ *)

let test_write_message_pattern () =
  (* One write: leader broadcasts Accept to both followers, each acks,
     leader commits and replies — the §3.3 message pattern. *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 5) ());
  (* Before any delivery: two pending Accepts (plus heartbeats already
     drained by elect). *)
  let accepts =
    List.filter (fun k -> k = "accept") (H.pending_kinds t)
  in
  Alcotest.(check int) "accept broadcast to both followers" 2 (List.length accepts);
  (* Deliver one Accept and its ack: majority reached -> commit. *)
  H.deliver_all t;
  (match H.take_replies t with
  | [ r ] ->
    Alcotest.(check bool) "reply ok" true (r.status = Ok);
    Alcotest.(check int) "result" 5 (Counter.decode_result r.payload)
  | _ -> Alcotest.fail "expected exactly one reply");
  for i = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "replica %d committed" i) 1
      (Replica.commit_point t.replicas.(i))
  done

let test_commit_with_single_ack () =
  (* The leader needs only one follower ack (majority of 3 includes
     itself); the second follower can lag arbitrarily. *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 1) ());
  (* Deliver only messages between replicas 0 and 1. *)
  let pair01 src dst _ = (src = 0 && dst = 1) || (src = 1 && dst = 0) in
  H.deliver_all ~filter:pair01 t;
  Alcotest.(check int) "leader committed with one ack" 1
    (Replica.commit_point t.replicas.(0));
  Alcotest.(check int) "lagging follower not yet" 0 (Replica.commit_point t.replicas.(2));
  (* Now release the rest: replica 2 catches up. *)
  H.deliver_all t;
  Alcotest.(check int) "follower 2 catches up" 1 (Replica.commit_point t.replicas.(2))

let test_malformed_op_dropped () =
  (* A service op that does not decode used to raise out of the leader's
     [handle] where it executed. The leader now drops it on arrival,
     whatever its request type, and goes on serving. *)
  let t = H.create () in
  H.elect t 0;
  List.iteri
    (fun i rtype -> H.submit t (H.client_request ~seq:(i + 1) ~rtype ~payload:"\x07" ()))
    [ Write; Read; Original; Txn_op 1 ];
  H.deliver_all t;
  Alcotest.(check int) "no reply" 0 (List.length (H.take_replies t));
  Alcotest.(check int) "no instance" 0 (Replica.commit_point t.replicas.(0));
  H.submit t (H.client_request ~seq:5 ~rtype:Write ~payload:(add 3) ());
  H.deliver_all t;
  (match H.take_replies t with
  | [ r ] -> Alcotest.(check int) "next write commits" 3 (Counter.decode_result r.payload)
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l));
  Alcotest.(check int) "one instance" 1 (Replica.commit_point t.replicas.(0))

let test_read_confirm_counting () =
  (* X-Paxos: the leader answers a read only after a majority of confirms
     (itself plus one). *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Read ~payload:get ());
  (* No confirms delivered yet: no reply. *)
  Alcotest.(check int) "no reply before confirms" 0 (List.length (H.take_replies t));
  let confirm src dst msg = src = 1 && dst = 0 && msg_kind msg = "read_confirm" in
  ignore (H.deliver ~filter:confirm t);
  match H.take_replies t with
  | [ r ] -> Alcotest.(check int) "read result" 0 (Counter.decode_result r.payload)
  | l -> Alcotest.fail (Printf.sprintf "expected one reply after majority, got %d" (List.length l))

let test_read_pre_confirm_buffering () =
  (* A follower's confirm can reach the leader before the client's own
     request does; the leader must buffer it. *)
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Read ~payload:get () in
  (* Follower 1 sees the read first and confirms. *)
  H.feed t 1 (Receive { src = client_node r.id.client; msg = Client_req r });
  ignore (H.deliver ~filter:(fun src dst msg -> src = 1 && dst = 0 && msg_kind msg = "read_confirm") t);
  Alcotest.(check int) "still no reply" 0 (List.length (H.take_replies t));
  (* Now the leader receives the request: buffered confirm + self = majority. *)
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "buffered confirm counted" 1 (List.length (H.take_replies t))

let test_read_reflects_committed_only () =
  (* A read served while a write is still uncommitted must not observe
     it. *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 9) ());
  (* Do not deliver the accepts: the write hangs uncommitted. *)
  H.submit t (H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get ());
  ignore (H.deliver ~filter:(fun _ _ m -> msg_kind m = "read_confirm") t);
  ignore (H.deliver ~filter:(fun _ _ m -> msg_kind m = "read_confirm") t);
  (match H.take_replies t with
  | [ r ] -> Alcotest.(check int) "uncommitted write invisible" 0 (Counter.decode_result r.payload)
  | _ -> Alcotest.fail "expected the read reply");
  H.deliver_all t;
  ignore (H.take_replies t)

let test_dedup_resend () =
  (* A retransmitted committed write gets its original reply, not a
     second execution. *)
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Write ~payload:(add 3) () in
  H.submit t r;
  H.deliver_all t;
  let first = H.take_replies t in
  H.submit t r;
  H.deliver_all t;
  let second = H.take_replies t in
  Alcotest.(check int) "one reply each time" 1 (List.length second);
  Alcotest.(check int) "same result"
    (Counter.decode_result (List.hd first).payload)
    (Counter.decode_result (List.hd second).payload);
  Alcotest.(check int) "executed once" 3 (Replica.state t.replicas.(0));
  Alcotest.(check int) "one instance" 1 (Replica.commit_point t.replicas.(0))

let test_stale_ballot_rejected () =
  (* Promote replica 1 with a higher ballot, then let the deposed leader
     try to commit: followers reject and the old leader steps down. *)
  let t = H.create () in
  H.elect t 0;
  commit_n t ~start:1 ~count:2;
  ignore (H.take_replies t);
  (* Elect replica 1 over replica 0's head: deliver its prepare to 2 only. *)
  H.feed t 1 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 1 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 1 (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t 1 (function Stability_check _ -> true | _ -> false));
  H.deliver_all ~filter:(fun src dst _ -> (src = 1 && dst = 2) || (src = 2 && dst = 1)) t;
  Alcotest.(check bool) "replica 1 leads" true (Replica.is_leader t.replicas.(1));
  Alcotest.(check bool) "replica 0 still believes it leads" true
    (Replica.is_leader t.replicas.(0));
  (* Old leader proposes: followers' promises are higher; rejects depose it. *)
  H.drop t ~filter:(fun _ _ _ -> true);
  H.feed t 0
    (Receive
       {
         src = client_node (Ids.Client_id.of_int 9);
         msg = Client_req (H.client_request ~client:9 ~seq:1 ~rtype:Write ~payload:(add 1) ());
       });
  H.deliver_all t;
  Alcotest.(check bool) "old leader deposed" false (Replica.is_leader t.replicas.(0));
  Alcotest.(check bool) "new leader intact" true (Replica.is_leader t.replicas.(1))

let test_paper_recovery_example () =
  (* §3.3's narrative: the new leader knows instances 1..k committed while
     a follower has accepted-but-uncommitted entries beyond k; a single
     prepare surfaces them, the new leader re-proposes them under its own
     ballot, and the sequence survives the switch. *)
  let t = H.create () in
  H.elect t 0;
  commit_n t ~start:1 ~count:3;
  ignore (H.take_replies t);
  (* Instance 4: replica 0 proposes but only replica 1 accepts (the
     commit never happens because we drop the acks). *)
  H.submit t (H.client_request ~seq:4 ~rtype:Write ~payload:(add 100) ());
  ignore (H.deliver ~filter:(fun src dst m -> src = 0 && dst = 1 && msg_kind m = "accept") t);
  H.drop t ~filter:(fun _ _ _ -> true);
  Alcotest.(check int) "old leader stuck at 3" 3 (Replica.commit_point t.replicas.(0));
  (* Replica 0 "fails"; replica 2 takes over. Its prepare reaches replica
     1, whose ack carries the accepted instance 4. *)
  H.feed t 2 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 2 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 2 (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t 2 (function Stability_check _ -> true | _ -> false));
  H.deliver_all ~filter:(fun src dst _ -> src <> 0 && dst <> 0) t;
  Alcotest.(check bool) "replica 2 leads" true (Replica.is_leader t.replicas.(2));
  Alcotest.(check int) "recovered entry re-proposed and committed" 4
    (Replica.commit_point t.replicas.(2));
  Alcotest.(check int) "the +100 write survived the switch" 103
    (Replica.state t.replicas.(2));
  (* The client's duplicate of request 4 is answered from the replicated
     reply cache, not re-executed. *)
  H.feed t 2
    (Receive
       {
         src = client_node (Ids.Client_id.of_int 1);
         msg = Client_req (H.client_request ~seq:4 ~rtype:Write ~payload:(add 100) ());
       });
  H.deliver_all ~filter:(fun src dst _ -> src <> 0 && dst <> 0) t;
  (match List.rev (H.take_replies t) with
  | r :: _ ->
    Alcotest.(check int) "cached reply for the recovered request" 103
      (Counter.decode_result r.payload)
  | [] -> Alcotest.fail "expected the cached reply");
  Alcotest.(check int) "still four instances" 4 (Replica.commit_point t.replicas.(2))

let test_stale_accept_not_committed () =
  (* A bare Commit must not commit a value accepted under an older ballot.
     Replica 2 (as deposed leader) self-accepted its own proposal for
     instance 2; a new leader — whose quorum never saw that value — decides
     a different batch for instance 2, and replica 2's higher promise (from
     a failed re-candidacy) makes it reject the new Accept. The new
     leader's Commit then reaches replica 2, which still holds the stale
     entry: it must catch up, not commit its own dead value. *)
  let t = H.create () in
  H.elect t 2;
  commit_n t ~start:1 ~count:1;
  ignore (H.take_replies t);
  (* Leader 2 proposes instance 2 = Add 50; it self-accepts, nobody else
     sees the Accept. *)
  H.feed t 2
    (Receive
       {
         src = client_node (Ids.Client_id.of_int 9);
         msg = Client_req (H.client_request ~client:9 ~seq:1 ~rtype:Write ~payload:(add 50) ());
       });
  H.drop t ~filter:(fun _ _ _ -> true);
  (* Replica 0 takes over with quorum {0,1}; replica 2 hears nothing. *)
  H.feed t 0 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 0 (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t 0 (function Stability_check _ -> true | _ -> false));
  let not2 src dst _ = src <> 2 && dst <> 2 in
  H.deliver_all ~filter:not2 t;
  Alcotest.(check bool) "replica 0 leads" true (Replica.is_leader t.replicas.(0));
  (* The new leader decides a different instance 2 within its quorum. *)
  H.feed t 0
    (Receive
       {
         src = client_node (Ids.Client_id.of_int 8);
         msg = Client_req (H.client_request ~client:8 ~seq:1 ~rtype:Write ~payload:(add 7) ());
       });
  H.deliver_all ~filter:not2 t;
  Alcotest.(check int) "new leader committed instance 2" 2
    (Replica.commit_point t.replicas.(0));
  (* Replica 2 learns it was deposed (a heartbeat carrying the higher
     ballot), then — still isolated — re-candidates: its promise now
     exceeds the new leader's ballot (next round, or same round with a
     higher holder id), so it would reject a (re)sent Accept. *)
  let b0 = Replica.ballot t.replicas.(0) in
  H.feed t 2
    (Receive
       {
         src = 0;
         msg =
           Heartbeat
             {
               round_seen = b0.round;
               commit_point = 1;
               promised = b0;
               sent_at = 0.0;
               lease_anchor = Float.nan;
             };
       });
  H.drop t ~filter:(fun _ _ _ -> true);
  Alcotest.(check bool) "replica 2 deposed" false (Replica.is_leader t.replicas.(2));
  H.feed t 2 (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t 2 (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t 2 (function Stability_check _ -> true | _ -> false));
  H.drop t ~filter:(fun _ _ _ -> true);
  Alcotest.(check bool) "replica 2 promised above the leader" true
    (Ballot.compare (Replica.promised t.replicas.(2)) (Replica.ballot t.replicas.(0)) > 0);
  (* The bare Commit arrives at replica 2, which still holds its own stale
     accept for instance 2. *)
  H.feed t 2
    (Receive
       { src = 0; msg = Commit { ballot = Replica.ballot t.replicas.(0); instance = 2 } });
  Alcotest.(check int) "stale value not committed" 1
    (Replica.commit_point t.replicas.(2));
  Alcotest.(check int) "stale +50 not applied" 1 (Replica.state t.replicas.(2));
  (* The rejection turned into catch-up: let it flow and converge. *)
  H.deliver_all t;
  Alcotest.(check int) "replica 2 caught up" 2 (Replica.commit_point t.replicas.(2));
  Alcotest.(check int) "replica 2 has the chosen value" 8 (Replica.state t.replicas.(2))

let test_snapshot_catchup_for_lagging_follower () =
  (* A follower that missed whole instances fetches a snapshot instead of
     replaying entries. *)
  let t =
    H.create
      ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~snapshot_interval:2 ())
      ()
  in
  H.elect t 0;
  (* Partition replica 2 away: it never sees these four instances. *)
  let not2 src dst _ = src <> 2 && dst <> 2 in
  for seq = 1 to 4 do
    let r = H.client_request ~seq ~rtype:Write ~payload:(add 1) () in
    H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
    H.feed t 1 (Receive { src = client_node r.id.client; msg = Client_req r });
    H.deliver_all ~filter:not2 t
  done;
  H.drop t ~filter:(fun src dst _ -> src = 2 || dst = 2);
  ignore (H.take_replies t);
  Alcotest.(check int) "follower 2 behind" 0 (Replica.commit_point t.replicas.(2));
  (* Heal: the next write's commit exposes the gap; follower 2 requests a
     catch-up snapshot. *)
  H.submit t (H.client_request ~seq:5 ~rtype:Write ~payload:(add 1) ());
  H.deliver_all t;
  Alcotest.(check int) "follower 2 caught up via snapshot" 5
    (Replica.commit_point t.replicas.(2));
  Alcotest.(check int) "state matches" (Replica.state t.replicas.(0))
    (Replica.state t.replicas.(2))

let test_duplicate_commit_after_truncation () =
  (* Each snapshot truncates the committed log prefix. A late or
     duplicated Commit for a truncated instance is already committed: it
     must not trigger a catch-up (which would ship a full snapshot). *)
  let t =
    H.create
      ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~snapshot_interval:2 ())
      ()
  in
  H.elect t 0;
  commit_n t ~start:1 ~count:4;
  ignore (H.take_replies t);
  Alcotest.(check int) "follower 1 committed 4" 4 (Replica.commit_point t.replicas.(1));
  Alcotest.(check int) "follower 1 log truncated at its last snapshot" 0
    (Replica.log_entries t.replicas.(1));
  let b0 = Replica.ballot t.replicas.(0) in
  H.feed t 1 (Receive { src = 0; msg = Commit { ballot = b0; instance = 1 } });
  H.feed t 1 (Receive { src = 0; msg = Commit { ballot = b0; instance = 4 } });
  Alcotest.(check (list string)) "no catch-up requested" [] (H.pending_kinds t);
  Alcotest.(check int) "commit point unchanged" 4 (Replica.commit_point t.replicas.(1));
  (* A late Accept for a truncated instance is acked but never re-stored. *)
  H.feed t 1
    (Receive
       {
         src = 0;
         msg =
           Accept
             {
               ballot = b0;
               instance = 2;
               proposal = { requests = []; update = Full ""; replies = [] };
             };
       });
  Alcotest.(check (list string)) "late accept acked" [ "accept_ack" ] (H.pending_kinds t);
  Alcotest.(check int) "truncated instance not re-stored" 0
    (Replica.log_entries t.replicas.(1))

let test_reordered_commit_at_snapshot_boundary () =
  (* Commit 5 reaches follower 1 before Commit 4, and applying 4 takes a
     snapshot. The snapshot covers instance 4 only: entry 5, committed
     but not yet applied, must survive the prune and be applied next. *)
  let t =
    H.create
      ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~snapshot_interval:2 ())
      ()
  in
  H.elect t 0;
  commit_n t ~start:1 ~count:3;
  let commit_to_1 _ dst m = dst = 1 && msg_kind m = "commit" in
  for seq = 4 to 5 do
    H.submit t (H.client_request ~seq ~rtype:Write ~payload:(add 1) ());
    H.deliver_all ~filter:(fun src dst m -> not (commit_to_1 src dst m)) t;
    H.drop t ~filter:commit_to_1
  done;
  ignore (H.take_replies t);
  Alcotest.(check int) "leader committed 5" 5 (Replica.commit_point t.replicas.(0));
  Alcotest.(check int) "follower 1 stuck at 3" 3 (Replica.commit_point t.replicas.(1));
  let b0 = Replica.ballot t.replicas.(0) in
  H.feed t 1 (Receive { src = 0; msg = Commit { ballot = b0; instance = 5 } });
  (* The gap asks for a snapshot; lose it so only Commit 4 can repair. *)
  H.drop t ~filter:(fun _ _ m -> msg_kind m = "catchup_req");
  H.feed t 1 (Receive { src = 0; msg = Commit { ballot = b0; instance = 4 } });
  Alcotest.(check (list string)) "no catch-up needed" [] (H.pending_kinds t);
  Alcotest.(check int) "follower 1 committed 5" 5 (Replica.commit_point t.replicas.(1));
  Alcotest.(check int) "follower 1 applied 5" (Replica.state t.replicas.(0))
    (Replica.state t.replicas.(1));
  Alcotest.(check int) "follower 1 log matches the leader's"
    (Replica.log_entries t.replicas.(0))
    (Replica.log_entries t.replicas.(1))

let test_heartbeat_commit_point_catchup () =
  (* A follower that missed only the final Commit learns it from the
     leader's heartbeat commit point. *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 1) ());
  (* Deliver accepts + acks but drop the commits. *)
  H.deliver_all ~filter:(fun _ _ m -> msg_kind m = "accept" || msg_kind m = "accept_ack") t;
  H.drop t ~filter:(fun _ _ m -> msg_kind m = "commit");
  Alcotest.(check int) "followers behind" 0 (Replica.commit_point t.replicas.(1));
  (* A heartbeat round triggers Catchup_req/Catchup. *)
  ignore (H.fire t 0 (function Hb_tick -> true | _ -> false));
  H.deliver_all t;
  Alcotest.(check int) "follower 1 caught up" 1 (Replica.commit_point t.replicas.(1));
  Alcotest.(check int) "follower 2 caught up" 1 (Replica.commit_point t.replicas.(2))

let test_accept_retry_is_idempotent () =
  (* Retransmitted Accepts (paper: "it retransmits those messages") do
     not duplicate anything. *)
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 7) ());
  (* Fire the retry before any delivery: two copies of each Accept. *)
  ignore (H.fire t 0 (function Accept_retry _ -> true | _ -> false));
  H.deliver_all t;
  ignore (H.take_replies t);
  Alcotest.(check int) "one instance" 1 (Replica.commit_point t.replicas.(1));
  Alcotest.(check int) "applied once" 7 (Replica.state t.replicas.(1))

let test_batch_commits_as_one_instance () =
  (* Multiple queued writes decide as a single instance whose replies all
     go out at commit. *)
  let t = H.create () in
  H.elect t 0;
  (* Submit three writes from distinct clients without delivering. *)
  for c = 1 to 3 do
    H.submit t (H.client_request ~client:c ~seq:1 ~rtype:Write ~payload:(add c) ())
  done;
  H.deliver_all t;
  Alcotest.(check int) "three replies" 3 (List.length (H.take_replies t));
  Alcotest.(check int) "state is the batch sum" 6 (Replica.state t.replicas.(0));
  (* The first write opened instance 1 immediately; the two that arrived
     while it was in flight batched into instance 2. *)
  Alcotest.(check int) "at most two instances" 2 (Replica.commit_point t.replicas.(0))

let test_original_is_uncoordinated () =
  let t = H.create () in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Original ~payload:(add 4) ());
  (* Reply emitted with no accept round at all. *)
  (match H.take_replies t with
  | [ r ] -> Alcotest.(check int) "original result" 4 (Counter.decode_result r.payload)
  | _ -> Alcotest.fail "expected immediate reply");
  Alcotest.(check bool) "no accept messages pending" true
    (not (List.mem "accept" (H.pending_kinds t)));
  Alcotest.(check int) "no instance consumed" 0 (Replica.commit_point t.replicas.(0))

let test_follower_ignores_writes () =
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Write ~payload:(add 1) () in
  H.feed t 1 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "follower stays silent" 0 (List.length (H.take_replies t));
  Alcotest.(check bool) "no accepts from a follower" true
    (not (List.mem "accept" (H.pending_kinds t)))

(* ------------------------------------------------------------------ *)
(* Read-path hardening regressions                                     *)

(* Depose the current leader and promote replica [i], letting every
   message flow (unlike H.elect this works against a live incumbent). *)
let takeover t i =
  H.feed t i (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t i (Timer Suspicion_tick);
  H.advance t 1000.0;
  H.feed t i (Timer Suspicion_tick);
  H.advance t 50.0;
  ignore (H.fire t i (function Stability_check _ -> true | _ -> false));
  H.deliver_all t;
  Alcotest.(check bool) (Printf.sprintf "replica %d takes over" i) true
    (Replica.is_leader t.H.replicas.(i))

let test_stale_pre_confirm_purged () =
  (* Regression: a confirm stashed under an earlier leadership of this
     replica must not count toward a read dispatched after the replica
     loses and re-wins the leadership — the old confirm endorsed a
     promise that was usurped in between. *)
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Read ~payload:get () in
  (* Follower 1 sees the read first; its confirm reaches leader 0 before
     the client's own request does, so leader 0 stashes it. *)
  H.feed t 1 (Receive { src = client_node r.id.client; msg = Client_req r });
  ignore
    (H.deliver
       ~filter:(fun src dst m -> src = 1 && dst = 0 && msg_kind m = "read_confirm")
       t);
  (* Leadership churns away and back: the stash is now stale. *)
  takeover t 1;
  takeover t 0;
  ignore (H.take_replies t);
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "stale stashed confirm not counted" 0
    (List.length (H.take_replies t));
  (* A confirm under the current ballot still completes the read. *)
  H.feed t 2 (Receive { src = client_node r.id.client; msg = Client_req r });
  ignore
    (H.deliver
       ~filter:(fun src dst m -> src = 2 && dst = 0 && msg_kind m = "read_confirm")
       t);
  match H.take_replies t with
  | [ rep ] -> Alcotest.(check bool) "fresh confirm completes the read" true (rep.status = Ok)
  | l -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length l))

let test_confirm_requires_current_ballot () =
  (* Regression: a Read_confirm tagged with a defunct ballot must not
     count toward a pending read at the current leader. *)
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Read ~payload:get () in
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "no reply on the leader's own confirm" 0
    (List.length (H.take_replies t));
  H.feed t 0
    (Receive
       {
         src = 1;
         msg = Read_confirm { ballot = Ballot.zero; req = r.id; lease_anchor = Float.nan };
       });
  Alcotest.(check int) "stale-ballot confirm ignored" 0 (List.length (H.take_replies t));
  H.feed t 0
    (Receive
       {
         src = 1;
         msg =
           Read_confirm
             {
               ballot = Replica.ballot t.replicas.(0);
               req = r.id;
               lease_anchor = Float.nan;
             };
       });
  Alcotest.(check int) "current-ballot confirm completes" 1
    (List.length (H.take_replies t))

let test_leadership_loss_returns_retry () =
  (* Regression: reads pending at a deposed leader must not be dropped
     silently — the client gets a typed Retry so it can fail over
     immediately. *)
  let t = H.create () in
  H.elect t 0;
  let r = H.client_request ~seq:1 ~rtype:Read ~payload:get () in
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "read pending on confirms" 0 (List.length (H.take_replies t));
  let b = Replica.ballot t.replicas.(0) in
  H.feed t 0
    (Receive
       {
         src = 1;
         msg =
           Prepare
             { ballot = Ballot.make ~round:(b.round + 1) ~holder:1; commit_point = 0 };
       });
  match H.take_replies t with
  | [ rep ] ->
    Alcotest.(check bool) "typed retry status" true (rep.status = Retry);
    Alcotest.(check bool) "for the pending read" true (rep.req = r.id);
    Alcotest.(check string) "empty payload" "" rep.payload
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected one Retry reply on deposition, got %d" (List.length l))

let test_stale_exec_timer_ignored () =
  (* An execution timer armed under one leadership must not run its
     batch under a later one: stepping down forgets the deferred work,
     and tokens only ever increase, so the old timer matches nothing —
     not even the token the new leadership's own batch holds. *)
  let t =
    H.create ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~execution_cost_ms:5.0 ()) ()
  in
  H.elect t 0;
  H.submit t (H.client_request ~seq:1 ~rtype:Write ~payload:(add 5) ());
  let exec_timer (j, timer) =
    match timer with Exec_done tok when j = 0 -> Some tok | _ -> None
  in
  let old_tok =
    match List.filter_map exec_timer t.H.timers with
    | [ tok ] -> tok
    | l -> Alcotest.failf "expected one armed execution timer, got %d" (List.length l)
  in
  let b = Replica.ballot t.replicas.(0) in
  H.feed t 0
    (Receive
       {
         src = 1;
         msg =
           Prepare
             { ballot = Ballot.make ~round:(b.round + 1) ~holder:1; commit_point = 0 };
       });
  Alcotest.(check bool) "deposed before the timer fires" false
    (Replica.is_leader t.replicas.(0));
  takeover t 0;
  (* The new leadership's first write holds the pipeline behind its own
     execution timer. *)
  H.submit t (H.client_request ~seq:2 ~rtype:Write ~payload:(add 7) ());
  Alcotest.(check bool) "old timer fires" true
    (H.fire t 0 (function Exec_done tok -> tok = old_tok | _ -> false));
  Alcotest.(check bool) "the old batch sends no Accept" false
    (List.mem "accept" (H.pending_kinds t));
  Alcotest.(check int) "nothing committed" 0 (Replica.commit_point t.replicas.(0));
  Alcotest.(check bool) "new timer fires" true
    (H.fire t 0 (function Exec_done _ -> true | _ -> false));
  H.deliver_all t;
  (match H.take_replies t with
  | [ r ] ->
    Alcotest.(check bool) "new write acknowledged" true (r.status = Ok && r.req.seq = 2);
    Alcotest.(check int) "only the new write applied" 7 (Counter.decode_result r.payload)
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l));
  Alcotest.(check int) "new leadership commits" 1 (Replica.commit_point t.replicas.(0))

(* ------------------------------------------------------------------ *)
(* Leader leases                                                       *)

let with_lease ?(lease_ms = 100.0) () =
  H.create ~cfg_tweak:(fun c -> Grid_paxos.Config.make ~base:c ~lease_ms ()) ()

(* One full heartbeat exchange: the leader's heartbeat grants at the
   followers, and their echoed anchors record the grants back at the
   leader. *)
let establish_lease t i =
  ignore (H.fire t i (function Hb_tick -> true | _ -> false));
  H.deliver_all t;
  Array.iteri
    (fun j _ ->
      if j <> i then ignore (H.fire t j (function Hb_tick -> true | _ -> false)))
    t.H.replicas;
  H.deliver_all t;
  Alcotest.(check bool) "majority lease held" true
    (Replica.holds_lease t.H.replicas.(i) ~now:t.H.now)

let test_leased_read_zero_messages () =
  (* The tentpole property: while the leader holds a majority lease, a
     read completes locally — no confirm round, zero protocol messages. *)
  let t = with_lease () in
  H.elect t 0;
  commit_n t ~start:1 ~count:1;
  ignore (H.take_replies t);
  establish_lease t 0;
  let before = List.length t.pending in
  let r = H.client_request ~client:2 ~seq:1 ~rtype:Read ~payload:get () in
  (* Only the leader sees the read: nobody else can confirm it. *)
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  (match H.take_replies t with
  | [ rep ] ->
    Alcotest.(check bool) "immediate local reply" true (rep.status = Ok);
    Alcotest.(check int) "reads committed state" 1 (Counter.decode_result rep.payload)
  | l -> Alcotest.fail (Printf.sprintf "expected one local reply, got %d" (List.length l)));
  Alcotest.(check int) "zero protocol messages for the leased read" before
    (List.length t.pending)

let test_lease_lapse_falls_back () =
  (* When the grants expire the fast path must demote to the confirm
     protocol, not serve potentially stale state. *)
  let t = with_lease () in
  H.elect t 0;
  establish_lease t 0;
  H.advance t 200.0;
  Alcotest.(check bool) "lease lapsed" false
    (Replica.holds_lease t.replicas.(0) ~now:t.now);
  let r = H.client_request ~seq:1 ~rtype:Read ~payload:get () in
  H.feed t 0 (Receive { src = client_node r.id.client; msg = Client_req r });
  Alcotest.(check int) "no local reply without the lease" 0
    (List.length (H.take_replies t));
  (* The client's broadcast reaches the followers; their confirms
     complete the read the X-Paxos way. *)
  H.feed t 1 (Receive { src = client_node r.id.client; msg = Client_req r });
  H.feed t 2 (Receive { src = client_node r.id.client; msg = Client_req r });
  H.deliver_all t;
  match H.take_replies t with
  | [ rep ] -> Alcotest.(check bool) "confirm path replies" true (rep.status = Ok)
  | l -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length l))

let test_lease_blocks_prepare () =
  (* A follower with an unexpired grant refuses promises to any other
     candidate regardless of ballot height — the refusal quorum is what
     makes local reads safe. *)
  let t = with_lease () in
  H.elect t 0;
  establish_lease t 0;
  let b1 = Replica.promised t.replicas.(1) in
  let usurper =
    Prepare { ballot = Ballot.make ~round:(b1.round + 5) ~holder:2; commit_point = 0 }
  in
  H.feed t 1 (Receive { src = 2; msg = usurper });
  Alcotest.(check bool) "reject sent while leased" true
    (List.mem "reject" (H.pending_kinds t));
  Alcotest.(check bool) "no prepare_ack while leased" true
    (not (List.mem "prepare_ack" (H.pending_kinds t)));
  Alcotest.(check bool) "promise unchanged" true
    (Ballot.equal (Replica.promised t.replicas.(1)) b1);
  (* The same prepare succeeds once the grant has expired. *)
  H.drop t ~filter:(fun _ _ _ -> true);
  H.advance t 200.0;
  H.feed t 1 (Receive { src = 2; msg = usurper });
  Alcotest.(check bool) "acked after expiry" true
    (List.mem "prepare_ack" (H.pending_kinds t))

let test_lease_gates_candidacy () =
  (* A granted follower does not start its own election while the grant
     is live; candidacy resumes after expiry (liveness shifts by at most
     one lease). *)
  let t = with_lease ~lease_ms:5000.0 () in
  H.elect t 0;
  ignore (H.fire t 0 (function Hb_tick -> true | _ -> false));
  H.deliver_all t;
  let run_election i =
    H.feed t i (Timer Suspicion_tick);
    H.advance t 1000.0;
    H.feed t i (Timer Suspicion_tick);
    H.advance t 50.0;
    ignore (H.fire t i (function Stability_check _ -> true | _ -> false))
  in
  run_election 1;
  Alcotest.(check bool) "no prepare while granted" true
    (not (List.mem "prepare" (H.pending_kinds t)));
  Alcotest.(check bool) "still a follower" false (Replica.is_leader t.replicas.(1));
  H.advance t 5000.0;
  run_election 1;
  H.deliver_all t;
  Alcotest.(check bool) "candidacy unblocked after expiry" true
    (Replica.is_leader t.replicas.(1))

let test_restart_lease_blackout () =
  (* A recovered follower forgot its grant; it must sit out one full
     lease, refusing every candidate, before promising again. *)
  let t = with_lease () in
  H.advance t 10.0;
  ignore (Replica.restart t.replicas.(1) ~now:t.now : step);
  Alcotest.(check (option int)) "blackout grant holder" (Some (-1))
    (Replica.lease_granted_to t.replicas.(1) ~now:t.now);
  let prep = Prepare { ballot = Ballot.make ~round:3 ~holder:0; commit_point = 0 } in
  H.feed t 1 (Receive { src = 0; msg = prep });
  Alcotest.(check bool) "prepare refused during blackout" true
    (List.mem "reject" (H.pending_kinds t));
  Alcotest.(check bool) "no ack during blackout" true
    (not (List.mem "prepare_ack" (H.pending_kinds t)));
  H.drop t ~filter:(fun _ _ _ -> true);
  H.advance t 150.0;
  H.feed t 1 (Receive { src = 0; msg = prep });
  Alcotest.(check bool) "promises again after the blackout" true
    (List.mem "prepare_ack" (H.pending_kinds t))

let suite =
  [
    ( "replica.engine",
      [
        Alcotest.test_case "write message pattern (§3.3)" `Quick test_write_message_pattern;
        Alcotest.test_case "commit with a single ack" `Quick test_commit_with_single_ack;
        Alcotest.test_case "X-Paxos confirm counting (§3.4)" `Quick
          test_read_confirm_counting;
        Alcotest.test_case "pre-confirm buffering" `Quick test_read_pre_confirm_buffering;
        Alcotest.test_case "reads see committed state only" `Quick
          test_read_reflects_committed_only;
        Alcotest.test_case "dedup resend" `Quick test_dedup_resend;
        Alcotest.test_case "malformed op dropped" `Quick test_malformed_op_dropped;
        Alcotest.test_case "stale ballot rejected" `Quick test_stale_ballot_rejected;
        Alcotest.test_case "stale accept not committed" `Quick
          test_stale_accept_not_committed;
        Alcotest.test_case "paper's recovery example (§3.3)" `Quick
          test_paper_recovery_example;
        Alcotest.test_case "snapshot catch-up" `Quick
          test_snapshot_catchup_for_lagging_follower;
        Alcotest.test_case "duplicate commit after truncation" `Quick
          test_duplicate_commit_after_truncation;
        Alcotest.test_case "reordered commit at a snapshot boundary" `Quick
          test_reordered_commit_at_snapshot_boundary;
        Alcotest.test_case "heartbeat commit-point catch-up" `Quick
          test_heartbeat_commit_point_catchup;
        Alcotest.test_case "accept retry idempotent" `Quick test_accept_retry_is_idempotent;
        Alcotest.test_case "write batching (one instance)" `Quick
          test_batch_commits_as_one_instance;
        Alcotest.test_case "original requests uncoordinated" `Quick
          test_original_is_uncoordinated;
        Alcotest.test_case "followers ignore writes" `Quick test_follower_ignores_writes;
        Alcotest.test_case "stale pre-confirm purged on churn" `Quick
          test_stale_pre_confirm_purged;
        Alcotest.test_case "confirms require the current ballot" `Quick
          test_confirm_requires_current_ballot;
        Alcotest.test_case "leadership loss returns Retry" `Quick
          test_leadership_loss_returns_retry;
        Alcotest.test_case "stale execution timer ignored" `Quick
          test_stale_exec_timer_ignored;
      ] );
    ( "replica.lease",
      [
        Alcotest.test_case "leased read is zero-message" `Quick
          test_leased_read_zero_messages;
        Alcotest.test_case "lapsed lease falls back to confirms" `Quick
          test_lease_lapse_falls_back;
        Alcotest.test_case "unexpired grant blocks Prepare" `Quick
          test_lease_blocks_prepare;
        Alcotest.test_case "grant gates own candidacy" `Quick test_lease_gates_candidacy;
        Alcotest.test_case "restart enters lease blackout" `Quick
          test_restart_lease_blackout;
      ] );
  ]
