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
      ~storage:(fun i -> if i = 1 then Some mem else None)
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

(* Persistence through engine steps, end to end over a scenario that
   makes every kind of record: election promises, a leader's and
   followers' accepts and commits, periodic snapshots, a catch-up
   snapshot install, and [load] + [restart]. The harness writes each
   step's [persist] before it runs the step's actions; here each
   replica's records go to a memory store, and that image must load
   back into the live replica's commit point and state. *)
let persists_recover_live () =
  let cfg = Config.make ~n:3 ~record_history:true ~snapshot_interval:3 () in
  let written = ref [] in
  (* A memory store that also notes which replica wrote which record kind. *)
  let store i =
    let mem, read = Storage.memory () in
    let note kind = written := (i, kind) :: !written in
    ( {
        Storage.persist_promise = (fun b -> note `Promise; mem.persist_promise b);
        persist_entry =
          (fun ~instance ~ballot p ->
            note `Entry;
            mem.persist_entry ~instance ~ballot p);
        persist_commit = (fun cp -> note `Commit; mem.persist_commit cp);
        persist_snapshot = (fun s -> note `Snapshot; mem.persist_snapshot s);
      },
      read )
  in
  let stores = Array.init 3 store in
  let t = H.create ~cfg_tweak:(fun _ -> cfg) ~storage:(fun i -> Some (fst stores.(i))) () in
  let wrote i kind = List.mem (i, kind) !written in
  let write ?(filter = fun _ _ _ -> true) seq =
    H.submit t (H.client_request ~seq ~rtype:Write ~payload:(put (Printf.sprintf "k%d" seq)) ());
    H.deliver_all ~filter t;
    H.drop t ~filter:(fun src dst msg -> not (filter src dst msg));
    ignore (H.take_replies t)
  in
  H.elect t 0;
  Alcotest.(check bool) "candidate and voters persist promises" true
    (wrote 0 `Promise && wrote 1 `Promise && wrote 2 `Promise);
  List.iter write [ 1; 2 ];
  (* Replica 2 misses instances 3-5, then learns of 6 and catches up
     from the leader's snapshot. *)
  List.iter (write ~filter:(fun _ dst _ -> dst <> 2)) [ 3; 4; 5 ];
  Alcotest.(check int) "replica 2 behind" 2 (Replica.commit_point t.replicas.(2));
  write 6;
  Alcotest.(check int) "replica 2 caught up" 6 (Replica.commit_point t.replicas.(2));
  let snapshot_cp i =
    match ((snd stores.(i)) ()).snapshot with
    | Some s -> (Grid_paxos.Snapshot.decode s).commit_point
    | None -> 0
  in
  Alcotest.(check int) "catch-up snapshot persisted" 6 (snapshot_cp 2);
  List.iter write [ 7; 8; 9 ];
  Alcotest.(check bool) "leader persists entries, commits and snapshots" true
    (wrote 0 `Entry && wrote 0 `Commit && wrote 0 `Snapshot);
  Alcotest.(check bool) "followers persist entries and commits" true
    (wrote 1 `Entry && wrote 1 `Commit && wrote 2 `Entry && wrote 2 `Commit);
  Alcotest.(check int) "periodic snapshot" 9 (snapshot_cp 1);
  let recovers i =
    let live = t.replicas.(i) in
    let back = Replica.create ~cfg ~id:i ~seed:(100 + i) () in
    Replica.load back ((snd stores.(i)) ());
    Alcotest.(check int)
      (Printf.sprintf "replica %d commit point" i)
      (Replica.commit_point live) (Replica.commit_point back);
    Alcotest.(check string)
      (Printf.sprintf "replica %d state" i)
      (Kv.encode_state (Replica.state live))
      (Kv.encode_state (Replica.state back));
    back
  in
  List.iter (fun i -> ignore (recovers i)) [ 0; 1; 2 ];
  (* Replica 2 restarts from its image: [load]'s re-persisted snapshot
     comes out with [restart]'s timers, and the store still recovers. *)
  let back = recovers 2 in
  t.replicas.(2) <- back;
  written := [];
  H.absorb t 2 (Replica.restart back ~now:t.now);
  Alcotest.(check bool) "restart re-persists the loaded snapshot" true (wrote 2 `Snapshot);
  ignore (recovers 2);
  write 10;
  List.iter (fun i -> ignore (recovers i)) [ 0; 1; 2 ]

(* A step's records come out in the order the step made them. Recovery
   depends on it: the promise is last-wins, and a torn step keeps a
   prefix. A follower promised to b1 that accepts at b2 > b1 promises
   b2 first, then accepts the entry under it, and only then acks. *)
let step_records_keep_their_order () =
  let t = H.create () in
  let follower = t.replicas.(2) in
  let b1 = Ballot.make ~round:1 ~holder:0 and b2 = Ballot.make ~round:2 ~holder:1 in
  let promised =
    Replica.handle follower ~now:0.0
      (Receive { src = 0; msg = Prepare { ballot = b1; commit_point = 0 } })
  in
  Alcotest.(check bool) "promised to b1" true (promised.persist = [ Promise b1 ]);
  let proposal =
    { requests = [ H.client_request ~seq:1 ~rtype:Write ~payload:(put "k1") () ];
      update = Full (Kv.encode_state (Kv.initial ())); replies = [] }
  in
  let step =
    Replica.handle follower ~now:1.0
      (Receive { src = 1; msg = Accept { ballot = b2; instance = 1; proposal } })
  in
  Alcotest.(check bool) "the promise, then the entry under it" true
    (step.persist = [ Promise b2; Entry { instance = 1; ballot = b2; proposal } ]);
  Alcotest.(check bool) "then the ack" true
    (step.out = [ Send { dst = 1; msg = Accept_ack { ballot = b2; instance = 1 } } ])

(* Periodic snapshots encode the state into an encoder each replica
   keeps and clears for the next one, and replaces once the state
   outgrows 64 KiB. Every snapshot a follower persists, as its state
   grows past that (12 values of 6 000 bytes) and then shrinks, must be
   the bytes [Snapshot.encode] gives for the same record (so nothing is
   left over from a longer one: [decode] also rejects trailing bytes),
   with the state the replica had at the snapshot's commit point. *)
let periodic_snapshots_reuse_their_encoder () =
  let cfg = Config.make ~n:3 ~record_history:true ~snapshot_interval:2 () in
  let mem, _ = Storage.memory () in
  let snaps = ref [] in
  let store =
    {
      mem with
      persist_snapshot =
        (fun s ->
          snaps := s :: !snaps;
          mem.persist_snapshot s);
    }
  in
  let t =
    H.create ~cfg_tweak:(fun _ -> cfg) ~storage:(fun i -> if i = 1 then Some store else None) ()
  in
  H.elect t 0;
  let run seq op =
    H.submit t (H.client_request ~client:1 ~seq ~rtype:Write ~payload:(Kv.encode_op op) ());
    H.deliver_all t;
    ignore (H.take_replies t)
  in
  let key i = Printf.sprintf "k%02d" i in
  for i = 0 to 11 do
    run (i + 1) (Kv.Put { key = key i; value = String.make 6000 'v' })
  done;
  for i = 0 to 11 do
    run (i + 13) (Kv.Del (key i))
  done;
  let history = Replica.committed_updates t.replicas.(1) in
  Alcotest.(check int) "a snapshot every second commit" 12 (List.length !snaps);
  List.iter
    (fun s ->
      let snap = Grid_paxos.Snapshot.decode s in
      Alcotest.(check string) "Snapshot.encode bytes" s (Grid_paxos.Snapshot.encode snap);
      let _, _, state = List.find (fun (i, _, _) -> i = snap.commit_point) history in
      Alcotest.(check string) "state at the commit point" state snap.state)
    !snaps;
  (* the same through one encoder used directly, longest state first *)
  let state = Wire.Encoder.create () in
  List.iter
    (fun s ->
      let snap = Grid_paxos.Snapshot.decode s in
      Wire.Encoder.clear state;
      Wire.Encoder.raw state snap.state;
      Alcotest.(check string) "encode_with on a reused encoder" s
        (Grid_paxos.Snapshot.encode_with ~state { snap with state = "" }))
    (List.sort (fun a b -> compare (String.length b) (String.length a)) !snaps)

let suite =
  [
    ( "replica.recovery",
      [
        Alcotest.test_case "persists precede sends and recover the live replica" `Quick
          persists_recover_live;
        Alcotest.test_case "recovered = live (log replay only)" `Quick
          (recovered_equals_live ~snapshot_interval:1000);
        Alcotest.test_case "recovered = live (snapshot + replay)" `Quick
          (recovered_equals_live ~snapshot_interval:3);
        Alcotest.test_case "periodic snapshots reuse their encoder" `Quick
          periodic_snapshots_reuse_their_encoder;
        Alcotest.test_case "a step's records keep their order" `Quick
          step_records_keep_their_order;
      ] );
  ]
