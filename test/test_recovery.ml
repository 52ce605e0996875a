(* Crash recovery through the one commit path: a replica rebuilt with
   [Replica.load] from its persisted image must equal the live replica
   that wrote the image, on the service state and on every table derived
   from committed instances (dedup, 2PC, reshard). The sharded stress
   tiers restart replicas in place and never call [load], so this is
   where a replay that forgets a table shows up. *)

module Kv = Grid_services.Kv_store
module H = Engine_harness.Make (Kv)
module Replica = H.Replica
module Config = Grid_paxos.Config
module Storage = Grid_paxos.Storage
module Reshard_wire = Grid_paxos.Reshard_wire
module Wire = Grid_codec.Wire
open Grid_paxos.Types

let put key = Kv.encode_op (Kv.Put { key; value = "v-" ^ key })
let tid_a = 7
let tid_b = 8

let freeze ~lo ~hi = Reshard_wire.encode_freeze ~lo ~hi:(Some hi) ~target:1

(* The slice another group's leader exports for [kv/x, +inf). *)
let install () =
  let st =
    (Kv.apply ~rng:(Grid_util.Rng.of_int 1) ~now:0.0 (Kv.initial ())
       (Kv.Put { key = "x1"; value = "X" }))
      .state
  in
  match Kv.export_range st ~lo:"kv/x" ~hi:None with
  | Some (count, blob) -> Reshard_wire.encode_install ~lo:"kv/x" ~hi:None ~count ~blob
  | None -> Alcotest.fail "kv exports ranges"

(* Eleven committed instances: writes, a 2PC branch prepared and then
   committed, a second one prepared with no decision yet, a reshard
   epoch (FREEZE one range out, INSTALL another in, COMMIT), then a
   write and a second FREEZE still awaiting its decision. Every request
   is answered [Ok]; the last write's reply is returned. *)
let commit_suffix t =
  let run ~client ~seq rtype payload =
    H.submit t (H.client_request ~client ~seq ~rtype ~payload ());
    H.deliver_all t;
    List.iter
      (fun (r : reply) -> if r.status <> Ok then Alcotest.fail "request not answered Ok")
      (H.take_replies t)
  in
  List.iter (fun seq -> run ~client:1 ~seq Write (put (Printf.sprintf "k%d" seq))) [ 1; 2; 3 ];
  run ~client:2 ~seq:1 (Txn_op tid_a) (put "a");
  run ~client:2 ~seq:2 (Txn_prepare tid_a) (Wire.encode (fun e -> Wire.Encoder.uint e 1));
  run ~client:2 ~seq:3 (Txn_commit tid_a) "";
  run ~client:3 ~seq:1 (Txn_op tid_b) (put "m");
  run ~client:3 ~seq:2 (Txn_prepare tid_b) (Wire.encode (fun e -> Wire.Encoder.uint e 1));
  run ~client:4 ~seq:1 (Reshard_freeze 1) (freeze ~lo:"kv/b" ~hi:"kv/d");
  run ~client:4 ~seq:2 (Reshard_install 1) (install ());
  run ~client:4 ~seq:3 (Reshard_commit 1) "map-1";
  run ~client:4 ~seq:4 (Reshard_freeze 2) (freeze ~lo:"kv/e" ~hi:"kv/f");
  H.submit t (H.client_request ~client:1 ~seq:4 ~rtype:Write ~payload:(put "k4") ());
  H.deliver_all t;
  match H.take_replies t with
  | [ r ] when r.status = Ok -> r
  | _ -> Alcotest.fail "expected one Ok reply to the last write"

let recovered_equals_live ~snapshot_interval () =
  let cfg = Config.make ~n:3 ~record_history:true ~snapshot_interval () in
  let mem, read = Storage.memory () in
  let t =
    H.create ~cfg_tweak:(fun _ -> cfg)
      ~storage:(fun i -> if i = 1 then mem else Storage.null ())
      ()
  in
  H.elect t 0;
  let last_reply = commit_suffix t in
  let live = t.replicas.(1) in
  (* The scenario reached the state it means to compare. *)
  Alcotest.(check int) "eleven instances" 11 (Replica.commit_point live);
  Alcotest.(check (list int)) "branch B still prepared" [ tid_b ] (Replica.prepared_txns live);
  Alcotest.(check (option bool)) "branch A committed" (Some true) (Replica.txn_outcome live tid_a);
  Alcotest.(check string) "second FREEZE pending" "frozen" (Replica.reshard_phase live);
  let image = read () in
  let snap_cp =
    match image.snapshot with
    | Some s -> (Grid_paxos.Snapshot.decode s).commit_point
    | None -> 0
  in
  Alcotest.(check bool) "a snapshot iff the interval was reached" (snapshot_interval <= 11)
    (snap_cp > 0);
  let back = Replica.create ~cfg ~id:1 ~seed:101 () in
  Replica.load back image;
  Alcotest.(check int) "commit point" (Replica.commit_point live) (Replica.commit_point back);
  Alcotest.(check string) "state"
    (Kv.encode_state (Replica.state live))
    (Kv.encode_state (Replica.state back));
  Alcotest.(check (list int)) "prepared txns" (Replica.prepared_txns live)
    (Replica.prepared_txns back);
  List.iter
    (fun tid ->
      Alcotest.(check (option bool)) "txn outcome" (Replica.txn_outcome live tid)
        (Replica.txn_outcome back tid))
    [ tid_a; tid_b ];
  Alcotest.(check int) "reshard epoch" (Replica.reshard_epoch live) (Replica.reshard_epoch back);
  Alcotest.(check string) "reshard map" (Replica.reshard_map live) (Replica.reshard_map back);
  Alcotest.(check string) "reshard phase" (Replica.reshard_phase live)
    (Replica.reshard_phase back);
  Alcotest.(check int) "moved ranges" (Replica.moved_ranges live) (Replica.moved_ranges back);
  Alcotest.(check int) "imported items" (Replica.imported_items live)
    (Replica.imported_items back);
  (* The snapshot stands in for the instances at or below its commit
     point; the rest are replayed and recorded again. *)
  let replayed = List.filter (fun (i, _, _) -> i > snap_cp) (Replica.committed_updates live) in
  Alcotest.(check int) "replayed instances" (11 - snap_cp)
    (List.length (Replica.committed_updates back));
  Alcotest.(check bool) "committed updates" true (replayed = Replica.committed_updates back);
  (* The recovered replica takes over; a retransmission of the last
     committed write is answered from its dedup table, with no new
     instance. *)
  t.replicas.(1) <- back;
  H.elect t 1;
  H.submit t (H.client_request ~client:1 ~seq:4 ~rtype:Write ~payload:(put "k4") ());
  H.deliver_all t;
  (match H.take_replies t with
  | [ r ] -> Alcotest.(check bool) "the committed reply again" true (r = last_reply)
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l));
  Array.iter
    (fun r -> Alcotest.(check int) "no new instance" 11 (Replica.commit_point r))
    t.replicas

let suite =
  [
    ( "replica.recovery",
      [
        Alcotest.test_case "recovered = live (log replay only)" `Quick
          (recovered_equals_live ~snapshot_interval:1000);
        Alcotest.test_case "recovered = live (snapshot + replay)" `Quick
          (recovered_equals_live ~snapshot_interval:3);
      ] );
  ]
