(* T-Paxos transaction tests: atomic commit, abort, conflicts,
   leader-switch abort (§3.5/§3.6), and the latency advantage over
   per-operation coordination. *)

module Config = Grid_paxos.Config
module Scenario = Grid_runtime.Scenario
module Kv = Grid_services.Kv_store
module Wire = Grid_codec.Wire
open Grid_paxos.Types

module RT = Grid_runtime.Runtime.Make (Kv)

(* Typed-submit shim: these scripts sequence requests manually, so a
   [`Busy] here is a test bug. *)
let submit t c rtype ~payload =
  match RT.submit t c rtype ~payload with
  | `Submitted -> ()
  | `Busy -> Alcotest.fail "submit: client busy"

let cfg () = Config.make ~n:3 ~record_history:true ()

(* A transaction script: ops inside the transaction, then its commit
   carrying the op count (the leader aborts on mismatch). *)
let txn_items ~tid ops =
  List.map (fun op -> Grid_runtime.Runtime.In_txn (tid, op)) ops
  @ [ Grid_runtime.Runtime.Commit_txn { tid; ops = List.length ops } ]

let gen_of items ~client:_ =
  let remaining = ref items in
  fun () ->
    match !remaining with
    | [] -> None
    | item :: rest ->
      remaining := rest;
      Some item

let run_items ?(scenario = Scenario.uniform ()) ?(cfg = cfg ()) items =
  let t = RT.create ~cfg ~scenario () in
  let results =
    RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length items)
      ~gen:(gen_of items)
  in
  RT.run_until t (RT.now t +. 500.0);
  (t, results)

(* ------------------------------------------------------------------ *)

let test_txn_commit_atomic () =
  let items =
    txn_items ~tid:1
      [ Kv.Put { key = "a"; value = "1" }; Kv.Put { key = "b"; value = "2" } ]
  in
  let t, results = run_items items in
  Alcotest.(check int) "all replied" 3 results.total_completed;
  List.iter
    (fun r -> Alcotest.(check bool) "status ok" true (r.RT.rec_status = Ok))
    results.records;
  for i = 0 to 2 do
    let st = RT.R.state (RT.replica t i) in
    Alcotest.(check (option string)) "a" (Some "1") (Kv.find st "a");
    Alcotest.(check (option string)) "b" (Some "2") (Kv.find st "b")
  done;
  (* The whole transaction is one consensus instance. *)
  Alcotest.(check int) "one instance" 1 (RT.R.commit_point (RT.replica t 0))

let test_txn_abort_discards () =
  let items =
    [
      Grid_runtime.Runtime.In_txn (1, Kv.Put { key = "x"; value = "doomed" });
      Grid_runtime.Runtime.Abort_txn 1;
    ]
  in
  let t, results = run_items items in
  Alcotest.(check int) "replied" 2 results.total_completed;
  (match List.rev results.records with
  | abort :: _ -> Alcotest.(check bool) "abort acknowledged" true (abort.RT.rec_status = Txn_aborted)
  | [] -> Alcotest.fail "no records");
  for i = 0 to 2 do
    Alcotest.(check (option string)) "x never committed" None
      (Kv.find (RT.R.state (RT.replica t i)) "x")
  done;
  Alcotest.(check int) "nothing decided" 0 (RT.R.commit_point (RT.replica t 0))

let test_txn_ops_fast_commit_slow () =
  (* §3.5: op replies take unreplicated time (2M); only the commit pays
     the accept phase. With 1 ms constant links: ops ≈ 2 ms, commit ≈ 4 ms. *)
  let items =
    txn_items ~tid:1
      [ Kv.Put { key = "a"; value = "1" }; Kv.Put { key = "b"; value = "2" } ]
  in
  let _, results = run_items items in
  (match results.records with
  | [ op1; op2; commit ] ->
    Alcotest.(check (float 0.3)) "op1 unreplicated latency" 2.0 op1.RT.rec_latency;
    Alcotest.(check (float 0.3)) "op2 unreplicated latency" 2.0 op2.RT.rec_latency;
    Alcotest.(check (float 0.3)) "commit pays the accept phase" 4.0 commit.RT.rec_latency
  | _ -> Alcotest.fail "expected three records")

let test_txn_isolation_until_commit () =
  (* A read (X-Paxos) by another client between the txn ops and the commit
     must not see uncommitted effects. *)
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let seen = ref (Some "sentinel") in
  let txn_client = ref None and reader_client = ref None in
  let tc =
    RT.add_client t ~id:1
      ~on_reply:(fun _reply -> ())
      ()
  in
  txn_client := Some tc;
  let rc = RT.add_client t ~id:2 ~on_reply:(fun reply ->
      match Kv.decode_result reply.payload with
      | Kv.Value v -> seen := v
      | _ -> ()) ()
  in
  reader_client := Some rc;
  (* Send the op, then (after it is answered) a read, then commit. *)
  submit t tc (Txn_op 1) ~payload:(Kv.encode_op (Kv.Put { key = "k"; value = "v" }));
  RT.run_until t (RT.now t +. 50.0);
  submit t rc Read ~payload:(Kv.encode_op (Kv.Get "k"));
  RT.run_until t (RT.now t +. 50.0);
  Alcotest.(check (option string)) "uncommitted write invisible" None !seen;
  submit t tc (Txn_commit 1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 50.0);
  submit t rc Read ~payload:(Kv.encode_op (Kv.Get "k"));
  RT.run_until t (RT.now t +. 50.0);
  Alcotest.(check (option string)) "committed write visible" (Some "v") !seen

let test_txn_conflict_first_committer_wins () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let statuses = Hashtbl.create 4 in
  let add_txn_client id tid =
    let cl = ref None in
    let c =
      RT.add_client t ~id
        ~on_reply:(fun reply -> Hashtbl.replace statuses (id, reply.req.seq) reply.status)
        ()
    in
    cl := Some c;
    (c, tid)
  in
  let c1, tid1 = add_txn_client 1 1 in
  let c2, tid2 = add_txn_client 2 1 in
  (* Both transactions write the same key; they interleave so both branch
     from the same commit point. *)
  submit t c1 (Txn_op tid1) ~payload:(Kv.encode_op (Kv.Put { key = "k"; value = "c1" }));
  submit t c2 (Txn_op tid2) ~payload:(Kv.encode_op (Kv.Put { key = "k"; value = "c2" }));
  RT.run_until t (RT.now t +. 50.0);
  submit t c1 (Txn_commit tid1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 50.0);
  submit t c2 (Txn_commit tid2) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 200.0);
  Alcotest.(check bool) "first commit ok" true
    (Hashtbl.find statuses (1, 2) = Ok);
  Alcotest.(check bool) "second commit conflicts" true
    (Hashtbl.find statuses (2, 2) = Txn_conflict);
  Alcotest.(check (option string)) "first committer's value" (Some "c1")
    (Kv.find (RT.R.state (RT.replica t 0)) "k")

let test_txn_disjoint_no_conflict () =
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let statuses = Hashtbl.create 4 in
  let mk id =
    RT.add_client t ~id
      ~on_reply:(fun reply -> Hashtbl.replace statuses (id, reply.req.seq) reply.status)
      ()
  in
  let c1 = mk 1 and c2 = mk 2 in
  submit t c1 (Txn_op 1) ~payload:(Kv.encode_op (Kv.Put { key = "a"; value = "1" }));
  submit t c2 (Txn_op 1) ~payload:(Kv.encode_op (Kv.Put { key = "b"; value = "2" }));
  RT.run_until t (RT.now t +. 50.0);
  submit t c1 (Txn_commit 1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 50.0);
  submit t c2 (Txn_commit 1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 200.0);
  Alcotest.(check bool) "c1 commit ok" true (Hashtbl.find statuses (1, 2) = Ok);
  Alcotest.(check bool) "c2 commit ok (disjoint keys rebase)" true
    (Hashtbl.find statuses (2, 2) = Ok);
  let st = RT.R.state (RT.replica t 1) in
  Alcotest.(check (option string)) "a" (Some "1") (Kv.find st "a");
  Alcotest.(check (option string)) "b" (Some "2") (Kv.find st "b")

(* An empty footprint overlaps nothing, not even the wildcard: a
   read-only branch commits although a ["*"] write (a broker [Select],
   which reads global load) committed after it branched. *)
let test_txn_read_only_vs_wildcard () =
  let module Broker = Grid_services.Resource_broker in
  let module RB = Grid_runtime.Runtime.Make (Broker) in
  let t = RB.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RB.await_leader t);
  let statuses = Hashtbl.create 4 in
  let mk id =
    RB.add_client t ~id
      ~on_reply:(fun reply -> Hashtbl.replace statuses (id, reply.req.seq) reply.status)
      ()
  in
  let submit c rtype ~payload =
    match RB.submit t c rtype ~payload with
    | `Submitted -> ()
    | `Busy -> Alcotest.fail "submit: client busy"
  in
  let c1 = mk 1 and c2 = mk 2 in
  submit c1 (Txn_op 1) ~payload:(Broker.encode_op Broker.List_free);
  RB.run_until t (RB.now t +. 50.0);
  submit c2 Write
    ~payload:
      (Broker.encode_op (Broker.Select { site = 0; units = 1; strategy = Broker.Uniform }));
  RB.run_until t (RB.now t +. 50.0);
  Alcotest.(check bool) "select committed" true (Hashtbl.find statuses (2, 1) = Ok);
  submit c1 (Txn_commit 1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RB.run_until t (RB.now t +. 200.0);
  Alcotest.(check bool) "read-only branch commits" true
    (Hashtbl.find_opt statuses (1, 2) = Some Ok)

let test_txn_leader_switch_aborts () =
  (* §3.6: if the leader switches mid-transaction, the new leader has no
     branch and must abort the commit. *)
  let t = RT.create ~cfg:(cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT.await_leader t);
  let last_status = ref Ok in
  let c =
    RT.add_client t ~id:1 ~on_reply:(fun reply -> last_status := reply.status) ()
  in
  submit t c (Txn_op 1) ~payload:(Kv.encode_op (Kv.Put { key = "k"; value = "v" }));
  RT.run_until t (RT.now t +. 20.0);
  RT.crash_replica t 0;
  RT.run_until t (RT.now t +. 2_000.0);
  Alcotest.(check bool) "new leader elected" true (RT.leader t <> None && RT.leader t <> Some 0);
  submit t c (Txn_commit 1) ~payload:(Wire.encode (fun e -> Wire.Encoder.uint e 1));
  RT.run_until t (RT.now t +. 2_000.0);
  Alcotest.(check bool) "commit aborted after switch" true (!last_status = Txn_aborted);
  Alcotest.(check (option string)) "no partial effect" None
    (Kv.find (RT.R.state (RT.replica t 1)) "k")

let test_txn_multiple_sequential () =
  (* Several transactions back to back from one client; state accumulates
     and each is one instance. *)
  let items =
    List.concat
      (List.init 5 (fun k ->
           txn_items ~tid:(k + 1)
             [
               Kv.Put { key = Printf.sprintf "k%d" k; value = string_of_int k };
               Kv.Append { key = "log"; value = string_of_int k };
             ]))
  in
  let t, results = run_items items in
  Alcotest.(check int) "replied" 15 results.total_completed;
  Alcotest.(check int) "five instances" 5 (RT.R.commit_point (RT.replica t 0));
  for i = 0 to 2 do
    let st = RT.R.state (RT.replica t i) in
    Alcotest.(check (option string)) "log accumulated" (Some "01234") (Kv.find st "log");
    Alcotest.(check int) "all keys present" 6 (Kv.cardinal st)
  done

let test_txn_agreement_across_replicas () =
  let items =
    List.concat
      (List.init 3 (fun k ->
           txn_items ~tid:(k + 1) [ Kv.Put { key = "shared"; value = string_of_int k } ]))
  in
  let t, _ = run_items items in
  let histories = Array.init 3 (fun i -> RT.R.committed_updates (RT.replica t i)) in
  Alcotest.(check int) "agreement" 0 (List.length (Grid_check.Agreement.check histories));
  let enc i = Kv.encode_state (RT.R.state (RT.replica t i)) in
  Alcotest.(check string) "r1 = r0" (enc 0) (enc 1);
  Alcotest.(check string) "r2 = r0" (enc 0) (enc 2)

let suite =
  [
    ( "txn.tpaxos",
      [
        Alcotest.test_case "commit is atomic + one instance" `Quick test_txn_commit_atomic;
        Alcotest.test_case "abort discards" `Quick test_txn_abort_discards;
        Alcotest.test_case "ops fast, commit pays (§3.5)" `Quick
          test_txn_ops_fast_commit_slow;
        Alcotest.test_case "isolation until commit" `Quick test_txn_isolation_until_commit;
        Alcotest.test_case "conflict: first committer wins" `Quick
          test_txn_conflict_first_committer_wins;
        Alcotest.test_case "disjoint txns both commit" `Quick test_txn_disjoint_no_conflict;
        Alcotest.test_case "read-only branch ignores a wildcard write" `Quick
          test_txn_read_only_vs_wildcard;
        Alcotest.test_case "leader switch aborts (§3.6)" `Quick
          test_txn_leader_switch_aborts;
        Alcotest.test_case "sequential transactions" `Quick test_txn_multiple_sequential;
        Alcotest.test_case "agreement across replicas" `Quick
          test_txn_agreement_across_replicas;
      ] );
  ]
