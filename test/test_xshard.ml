(* Cross-shard 2PC tests (DESIGN.md §16): deterministic engine-level
   scripts for the abort/recovery paths the stress tier only samples —
   participant leader crash between PREPARE and COMMIT, coordinator
   abandonment after a partial PREPARE, duplicate COMMIT delivery — plus
   the router pin-table regression and unit tests for the cross-shard
   history checker. *)

module Config = Grid_paxos.Config
module Runtime = Grid_runtime.Runtime
module Scenario = Grid_runtime.Scenario
module Partition = Grid_shard.Partition
module Kv = Grid_services.Kv_store
module Ids = Grid_util.Ids
module Xshard = Grid_check.Xshard
module M = Grid_shard.Multi.Make (Kv)
open Grid_paxos.Types

let mk_cluster ?(seed = 5) ?(shards = 3) () =
  let t =
    M.create ~seed
      ~cfg:(Config.make ~n:3 ~record_history:true ~suspicion_ms:60.0 ~stability_ms:20.0 ())
      ~scenario:(Scenario.uniform ()) ~route:Kv.route ~shards ()
  in
  (match M.await_leaders t with
  | Some _ -> ()
  | None -> Alcotest.fail "leaders not elected");
  t

(* A key owned by shard [s], found by rejection sampling so the test
   does not bake in hash values. *)
let owned_key t s =
  let p = M.partition t in
  let rec go i =
    let k = Printf.sprintf "xs%d-%d" s i in
    if Partition.owner_of_key p ("kv/" ^ k) = s then k else go (i + 1)
  in
  go 0

let settle ?(ms = 500.0) t = M.run_until t (M.now t +. ms)

let wait t cond =
  let deadline = M.now t +. 10_000.0 in
  while (not (cond ())) && M.now t < deadline do
    M.run_until t (M.now t +. 10.0)
  done;
  if not (cond ()) then Alcotest.fail "timed out waiting for condition"

let leader_of t g =
  match M.Group.leader (M.group t g) with
  | Some l -> M.Group.replica (M.group t g) l
  | None -> Alcotest.fail (Printf.sprintf "group %d has no leader" g)

let value_at t g key =
  Kv.find (M.Group.R.state (leader_of t g)) key

let submit_ok what = function
  | `Submitted -> ()
  | `Busy -> Alcotest.fail (what ^ ": handle busy")

(* ------------------------------------------------------------------ *)
(* Happy path: a transaction over two groups commits atomically. *)

let test_cross_commit () =
  let t = mk_cluster () in
  let cl = M.add_client t ~id:0 () in
  let ka = owned_key t 0 and kb = owned_key t 1 in
  let result = ref None in
  let tid =
    M.submit_cross_txn t cl
      ~ops:[ Kv.Put { key = ka; value = "A" }; Kv.Put { key = kb; value = "B" } ]
      ~on_done:(fun r -> result := Some r)
  in
  Alcotest.(check bool) "cross tid namespace" true (M.is_cross_tid tid);
  wait t (fun () -> !result <> None);
  (match !result with
  | Some M.X_committed -> ()
  | r ->
    Alcotest.failf "expected commit, got %s"
      (match r with
      | Some r -> Format.asprintf "%a" M.pp_xresult r
      | None -> "nothing"));
  settle t;
  Alcotest.(check (option string)) "shard 0 applied its op" (Some "A")
    (value_at t 0 ka);
  Alcotest.(check (option string)) "shard 1 applied its op" (Some "B")
    (value_at t 1 kb);
  for g = 0 to 1 do
    Alcotest.(check (option bool))
      (Printf.sprintf "group %d tombstone says committed" g)
      (Some true)
      (M.Group.R.txn_outcome (leader_of t g) tid);
    Alcotest.(check (list int))
      (Printf.sprintf "group %d holds no prepares" g)
      []
      (M.Group.R.prepared_txns (leader_of t g))
  done

(* ------------------------------------------------------------------ *)
(* Participant leader crashes between PREPARE and COMMIT: the vote is a
   committed consensus instance, so the failover leader inherits it and
   the commit still lands. *)

let test_participant_crash_between_prepare_and_commit () =
  let t = mk_cluster () in
  let cl = M.add_client t ~id:0 () in
  let ka = owned_key t 0 and kb = owned_key t 1 in
  let tid = M.alloc_cross_tid t in
  let replies = ref 0 in
  M.set_on_reply t cl (fun r ->
      Alcotest.(check bool) "step replied Ok" true (r.status = Ok);
      incr replies);
  submit_ok "op a"
    (M.submit_txn_op t cl ~shard:0 ~tid (Kv.Put { key = ka; value = "A" }));
  submit_ok "op b"
    (M.submit_txn_op t cl ~shard:1 ~tid (Kv.Put { key = kb; value = "B" }));
  wait t (fun () -> !replies = 2);
  submit_ok "prepare 0" (M.submit_prepare t cl ~shard:0 ~tid ~ops:1);
  submit_ok "prepare 1" (M.submit_prepare t cl ~shard:1 ~tid ~ops:1);
  wait t (fun () -> !replies = 4);
  (* Both groups voted YES. Kill group 1's leader before any decision. *)
  let old_leader =
    match M.Group.leader (M.group t 1) with
    | Some l -> l
    | None -> Alcotest.fail "group 1 lost its leader early"
  in
  M.crash_replica t ~shard:1 old_leader;
  wait t (fun () ->
      match M.Group.leader (M.group t 1) with
      | Some l -> l <> old_leader
      | None -> false);
  (* The failover leader learned the vote from the group's log. *)
  Alcotest.(check (list int)) "failover leader inherits the prepare" [ tid ]
    (M.Group.R.prepared_txns (leader_of t 1));
  (* Drive the decision: home first, then the surviving group. *)
  submit_ok "commit home" (M.submit_decision t cl ~shard:0 ~tid ~commit:true);
  wait t (fun () -> !replies = 5);
  submit_ok "commit 1" (M.submit_decision t cl ~shard:1 ~tid ~commit:true);
  wait t (fun () -> !replies = 6);
  settle t;
  Alcotest.(check (option string)) "shard 0 applied" (Some "A") (value_at t 0 ka);
  Alcotest.(check (option string)) "shard 1 applied across failover" (Some "B")
    (value_at t 1 kb);
  Alcotest.(check (option bool)) "failover leader logged the commit" (Some true)
    (M.Group.R.txn_outcome (leader_of t 1) tid);
  M.recover_replica t ~shard:1 old_leader;
  settle t;
  Alcotest.(check (list int)) "no prepares left in group 1" []
    (M.Group.R.prepared_txns (leader_of t 1))

(* ------------------------------------------------------------------ *)
(* Coordinator abandons the transaction after a partial prepare: the
   prepared group holds its locks (a conflicting write must wait), and
   presumed-abort recovery releases everything. *)

let test_coordinator_crash_partial_prepare () =
  let t = mk_cluster () in
  let cl = M.add_client t ~id:0 () in
  let ka = owned_key t 0 and kb = owned_key t 1 in
  let tid = M.alloc_cross_tid t in
  let replies = ref 0 in
  M.set_on_reply t cl (fun _ -> incr replies);
  submit_ok "op a"
    (M.submit_txn_op t cl ~shard:0 ~tid (Kv.Put { key = ka; value = "A" }));
  submit_ok "op b"
    (M.submit_txn_op t cl ~shard:1 ~tid (Kv.Put { key = kb; value = "B" }));
  wait t (fun () -> !replies = 2);
  (* Prepare only at group 1 (not the home group), then go silent. *)
  submit_ok "prepare 1" (M.submit_prepare t cl ~shard:1 ~tid ~ops:1);
  wait t (fun () -> !replies = 3);
  Alcotest.(check (list int)) "group 1 voted and holds the lock" [ tid ]
    (M.Group.R.prepared_txns (leader_of t 1));
  (* A plain write on the locked key from another client must wait for
     the decision, not race it. *)
  let wcl = M.add_client t ~id:1 () in
  let wreply = ref None in
  M.set_on_reply t wcl (fun r -> wreply := Some r);
  (match M.try_submit_op t wcl (Kv.Put { key = kb; value = "W" }) with
  | Ok s -> Alcotest.(check int) "write routed to the locked group" 1 s
  | Error e -> Alcotest.failf "write: %a" M.pp_submit_error e);
  settle t ~ms:300.0;
  Alcotest.(check bool) "write blocked behind the prepared branch" true
    (!wreply = None);
  (* Presumed-abort recovery from a fresh client. *)
  let rcl = M.add_client t ~id:2 () in
  let rresult = ref None in
  M.recover_cross_txn t rcl ~tid ~shards:[ 0; 1 ] ~on_done:(fun r ->
      rresult := Some r);
  wait t (fun () -> !rresult <> None);
  (match !rresult with
  | Some M.X_aborted -> ()
  | _ -> Alcotest.fail "recovery must abort an undecided transaction");
  wait t (fun () -> !wreply <> None);
  settle t;
  Alcotest.(check (option string)) "blocked write ran after the abort"
    (Some "W") (value_at t 1 kb);
  Alcotest.(check (option string)) "branch never committed on shard 0" None
    (value_at t 0 ka);
  Alcotest.(check (option bool)) "group 1 logged the abort" (Some false)
    (M.Group.R.txn_outcome (leader_of t 1) tid);
  Alcotest.(check (list int)) "locks released" []
    (M.Group.R.prepared_txns (leader_of t 1))

(* ------------------------------------------------------------------ *)
(* Duplicate COMMIT delivery: the decision tombstone makes the second
   commit a no-op Ok instead of a double apply. *)

let test_duplicate_commit_delivery () =
  let t = mk_cluster () in
  let cl = M.add_client t ~id:0 () in
  let ka = owned_key t 0 and kb = owned_key t 1 in
  let tid = M.alloc_cross_tid t in
  let replies = ref 0 in
  M.set_on_reply t cl (fun _ -> incr replies);
  submit_ok "op a"
    (M.submit_txn_op t cl ~shard:0 ~tid (Kv.Append { key = ka; value = "+a" }));
  submit_ok "op b"
    (M.submit_txn_op t cl ~shard:1 ~tid (Kv.Append { key = kb; value = "+b" }));
  wait t (fun () -> !replies = 2);
  submit_ok "prepare 0" (M.submit_prepare t cl ~shard:0 ~tid ~ops:1);
  submit_ok "prepare 1" (M.submit_prepare t cl ~shard:1 ~tid ~ops:1);
  wait t (fun () -> !replies = 4);
  submit_ok "commit 0" (M.submit_decision t cl ~shard:0 ~tid ~commit:true);
  submit_ok "commit 1" (M.submit_decision t cl ~shard:1 ~tid ~commit:true);
  wait t (fun () -> !replies = 6);
  (* A second client re-delivers the COMMIT to both groups. *)
  let dcl = M.add_client t ~id:1 () in
  let dups = ref [] in
  M.set_on_reply t dcl (fun r -> dups := r.status :: !dups);
  submit_ok "dup commit 0" (M.submit_decision t dcl ~shard:0 ~tid ~commit:true);
  submit_ok "dup commit 1" (M.submit_decision t dcl ~shard:1 ~tid ~commit:true);
  wait t (fun () -> List.length !dups = 2);
  List.iter
    (fun s -> Alcotest.(check bool) "duplicate commit answered Ok" true (s = Ok))
    !dups;
  settle t;
  (* Appends applied exactly once despite the duplicate decision. *)
  Alcotest.(check (option string)) "shard 0 applied once" (Some "+a")
    (value_at t 0 ka);
  Alcotest.(check (option string)) "shard 1 applied once" (Some "+b")
    (value_at t 1 kb);
  (* And the committed histories pass the cross-shard checker — in
     particular no Duplicate_decision. *)
  let longest g =
    let gt = M.group t g in
    let best = ref [] in
    for i = 0 to 2 do
      let h = M.Group.R.committed_updates (M.Group.replica gt i) in
      if List.length h > List.length !best then best := h
    done;
    !best
  in
  let footprint_of payload =
    match Kv.decode_op payload with
    | op -> Grid_paxos.Footprint.of_keys (Kv.footprint op)
    | exception _ -> Grid_paxos.Footprint.all
  in
  Alcotest.(check int) "checker finds no violations" 0
    (List.length
       (Xshard.check ~require_resolved:true ~is_cross_tid:M.is_cross_tid
          ~footprint_of
          (Array.init (M.shards t) longest)))

(* ------------------------------------------------------------------ *)
(* A duplicated branch op: the network delivers one [Txn_op] to the
   leader twice. The branch must hold it once, so a prepare counting one
   op votes YES and the COMMIT applies the op once. The op count is what
   makes a leader switch abort a transaction (§3.6); a second copy of one
   op must not stand in for an op the branch lost. *)

let test_duplicate_txn_op () =
  let module H = Engine_harness.Make (Kv) in
  let t = H.create () in
  H.elect t 0;
  let tid = M.cross_tid_base in
  let run ~seq rtype payload =
    H.submit t (H.client_request ~client:2 ~seq ~rtype ~payload ());
    H.deliver_all t;
    List.map (fun (r : reply) -> Format.asprintf "%a" pp_status r.status) (H.take_replies t)
  in
  let ok = [ Format.asprintf "%a" pp_status Ok ] in
  let op =
    H.client_request ~client:2 ~seq:1 ~rtype:(Txn_op tid)
      ~payload:(Kv.encode_op (Kv.Append { key = "k"; value = "+a" }))
      ()
  in
  H.submit t op;
  H.submit t op;
  H.deliver_all t;
  Alcotest.(check int) "both copies answered" 2 (List.length (H.take_replies t));
  let count = Grid_codec.Wire.encode (fun e -> Grid_codec.Wire.Encoder.uint e 1) in
  Alcotest.(check (list string)) "the prepare counting one op votes YES" ok
    (run ~seq:2 (Txn_prepare tid) count);
  Alcotest.(check (list string)) "the commit is answered Ok" ok
    (run ~seq:3 (Txn_commit tid) count);
  Alcotest.(check (option string)) "the op applied once" (Some "+a")
    (Kv.find (H.Replica.state t.replicas.(0)) "k")

(* ------------------------------------------------------------------ *)
(* Router pin-table regression: 10^5 transactions through one logical
   client leave no pins behind, and the table never grows past the
   transactions genuinely open. *)

let test_pin_table_bounded () =
  let t = mk_cluster ~seed:11 ~shards:2 () in
  let cl = M.add_client t ~id:0 () in
  let key = owned_key t 0 in
  let total = 100_000 in
  let max_pins = ref 0 in
  let finished = ref 0 in
  let cur = ref 0 in
  let phase = ref `Op in
  let submit what it =
    match M.try_submit_item t cl it with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %a" what M.pp_submit_error e
  in
  let start_txn () =
    incr cur;
    phase := `Op;
    submit "txn op" (Runtime.In_txn (!cur, Kv.Put { key; value = "v" }))
  in
  M.set_on_reply t cl (fun _ ->
      match !phase with
      | `Op ->
        phase := `Fin;
        if !cur mod 1000 = 0 then
          submit "commit" (Runtime.Commit_txn { tid = !cur; ops = 1 })
        else submit "abort" (Runtime.Abort_txn !cur)
      | `Fin ->
        incr finished;
        if M.pinned_txns cl > !max_pins then max_pins := M.pinned_txns cl;
        if !cur < total then start_txn ());
  start_txn ();
  let deadline = M.now t +. 5_000_000.0 in
  while !finished < total && M.now t < deadline do
    M.run_until t (M.now t +. 1_000.0)
  done;
  Alcotest.(check int) "all transactions finished" total !finished;
  Alcotest.(check int) "no pins leaked" 0 (M.pinned_txns cl);
  Alcotest.(check bool)
    (Printf.sprintf "pin table stayed bounded (max %d)" !max_pins)
    true (!max_pins <= 1)

(* ------------------------------------------------------------------ *)
(* Checker unit tests: hand-built histories must trip each violation. *)

let creq ~seq rtype payload =
  {
    id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq;
    rtype;
    payload;
    trace = no_trace;
  }

let tid_a = 1_000_000_001
let tid_b = 1_000_000_002
let is_cross tid = tid >= 1_000_000_000
let fp_of payload = Grid_paxos.Footprint.of_keys [ payload ]

let xcheck ?require_resolved histories =
  Xshard.check ?require_resolved ~is_cross_tid:is_cross ~footprint_of:fp_of
    histories

let test_checker_mixed_decision () =
  let histories =
    [|
      [ (1, [ creq ~seq:1 (Txn_commit tid_a) "" ], "") ];
      [ (1, [ creq ~seq:2 (Txn_abort tid_a) "" ], "") ];
    |]
  in
  match xcheck histories with
  | [ Xshard.Mixed_decision { tid; committed_in; aborted_in } ] ->
    Alcotest.(check int) "tid" tid_a tid;
    Alcotest.(check (list int)) "committed groups" [ 0 ] committed_in;
    Alcotest.(check (list int)) "aborted groups" [ 1 ] aborted_in
  | vs ->
    Alcotest.failf "expected one mixed-decision violation, got %d"
      (List.length vs)

let test_checker_duplicate_decision () =
  let histories =
    [|
      [
        (1, [ creq ~seq:1 (Txn_commit tid_a) "" ], "");
        (2, [ creq ~seq:2 (Txn_commit tid_a) "" ], "");
      ];
    |]
  in
  match xcheck histories with
  | [ Xshard.Duplicate_decision { tid; group; instances } ] ->
    Alcotest.(check int) "tid" tid_a tid;
    Alcotest.(check int) "group" 0 group;
    Alcotest.(check int) "two instances" 2 (List.length instances)
  | vs ->
    Alcotest.failf "expected one duplicate-decision violation, got %d"
      (List.length vs)

let test_checker_unresolved_prepare () =
  let histories = [| [ (1, [ creq ~seq:1 (Txn_prepare tid_a) "" ], "") ] |] in
  Alcotest.(check int) "silent unless resolution is required" 0
    (List.length (xcheck histories));
  match xcheck ~require_resolved:true histories with
  | [ Xshard.Unresolved_prepare { tid; group; instance } ] ->
    Alcotest.(check int) "tid" tid_a tid;
    Alcotest.(check int) "group" 0 group;
    Alcotest.(check int) "instance" 1 instance
  | vs ->
    Alcotest.failf "expected one unresolved-prepare violation, got %d"
      (List.length vs)

let test_checker_serialization_cycle () =
  (* Group 0 decides A before B, group 1 decides B before A, with
     conflicting footprints in each group: not serializable. *)
  let commit tid ~seq ~key =
    [ creq ~seq (Txn_op tid) key; creq ~seq:(seq + 1) (Txn_commit tid) "" ]
  in
  let histories =
    [|
      [
        (1, commit tid_a ~seq:1 ~key:"k0", "");
        (2, commit tid_b ~seq:3 ~key:"k0", "");
      ];
      [
        (1, commit tid_b ~seq:5 ~key:"k1", "");
        (2, commit tid_a ~seq:7 ~key:"k1", "");
      ];
    |]
  in
  (match xcheck histories with
  | [ Xshard.Cycle { tids } ] ->
    Alcotest.(check bool) "cycle covers both txns" true
      (List.sort Int.compare tids = [ tid_a; tid_b ])
  | vs -> Alcotest.failf "expected one cycle violation, got %d" (List.length vs));
  (* Same decisions in the same order are serializable. *)
  let agreeing =
    [|
      [
        (1, commit tid_a ~seq:1 ~key:"k0", "");
        (2, commit tid_b ~seq:3 ~key:"k0", "");
      ];
      [
        (1, commit tid_a ~seq:5 ~key:"k1", "");
        (2, commit tid_b ~seq:7 ~key:"k1", "");
      ];
    |]
  in
  Alcotest.(check int) "aligned orders pass" 0 (List.length (xcheck agreeing))

(* ------------------------------------------------------------------ *)
(* Seeded stress schedules as a byte-identity oracle: the same seed
   yields the same span dump, and recording spans does not perturb the
   schedule it records. *)

let test_traced_schedule_deterministic () =
  let module X = Grid_check.Xstress in
  let traced run =
    let dump = ref [] in
    let o =
      run
        (Some
           (fun evs ->
             dump :=
               List.map
                 (fun e -> Grid_obs.Json.to_string (Grid_obs.Span.event_to_json e))
                 evs))
    in
    (o, !dump)
  in
  let check name ~pp run =
    let plain = Format.asprintf "%a" pp (run None) in
    let o1, d1 = traced run and o2, d2 = traced run in
    Alcotest.(check bool) (name ^ ": spans recorded") true (d1 <> []);
    Alcotest.(check (list string)) (name ^ ": same seed, same dump") d1 d2;
    Alcotest.(check string) (name ^ ": tracing leaves the schedule alone") plain
      (Format.asprintf "%a" pp o1);
    Alcotest.(check string) (name ^ ": traced reruns agree") plain
      (Format.asprintf "%a" pp o2)
  in
  check "xshard" ~pp:X.pp_outcome (fun trace -> X.run_one ?trace ~seed:1 X.Xshard);
  check "reshard" ~pp:X.pp_outcome (fun trace -> X.run_one ?trace ~seed:1 X.Reshard)

(* Two schedules that once failed: xshard seed 8509, where the drain
   oracle read the longest replica history and that history had a hole
   (its replica caught up by snapshot, missing the ABORT the other two
   hold), and reshard seed 2767, where a duplicated [Txn_op] filled in
   for an op the branch lost to a leader switch, so a committed
   transaction applied one op twice and another not at all. *)
let test_regression_seed tier seed () =
  let o = Grid_check.Xstress.run_one ~seed tier in
  Alcotest.(check (list string)) "no violations" [] o.violations

(* The one batch loop folds exactly the schedules the seed path runs,
   for every tier: seeds dealt round-robin over the tier's lanes, the
   schedule count, the failing seeds in run order, the sharded tiers'
   per-seed counts summed and their "exercised" rule satisfied. The
   counter, kv and both tiers run with request dedup disabled under
   heavy duplication, so some of their seeds fail. *)
let test_batch_folds_schedules () =
  let module T = Grid_check.Tier in
  let module X = Grid_check.Xstress in
  let schedules = 4 in
  let silent = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let nemesis = { Grid_check.Stress.default_nemesis with dup_prob = 0.15 } in
  let cfg_tweak c = Grid_paxos.Config.make ~base:c ~disable_dedup:true () in
  let folds (type s) name (tier : s T.t) =
    let p = T.plug ~steps:600 ~nemesis ~cfg_tweak tier in
    let s = T.batch ~schedules ~base_seed:1 p in
    let n = List.length p.lanes in
    let failing =
      List.concat
        (List.mapi
           (fun i (lane : s T.lane) ->
             List.filter
               (fun seed -> (seed - 1) mod n = i && not (lane.check ~seed silent))
               (List.init schedules succ))
           p.lanes)
    in
    Alcotest.(check int) (name ^ ": schedules") schedules (p.schedules s);
    Alcotest.(check (list int)) (name ^ ": failing seeds") failing (p.failing_seeds s);
    (p, s)
  in
  let planted =
    List.map
      (fun (name, tier) -> snd (folds name tier))
      [ ("counter", T.Counter); ("kv", T.Kv); ("both", T.Both) ]
  in
  Alcotest.(check bool) "the planted bug fails some seed" true
    (List.exists (fun (s : T.group) -> s.failures <> []) planted);
  ignore (folds "overload" T.Overload);
  let fields =
    [
      ("committed", fun (n : X.counts) -> n.committed);
      ("aborted", fun n -> n.aborted);
      ("conflicted", fun n -> n.conflicted);
      ("parked", fun n -> n.parked);
      ("recovered", fun n -> n.recovered);
      ("singles", fun n -> n.singles);
      ("splits", fun n -> n.splits);
      ("merges", fun n -> n.merges);
      ("moves_aborted", fun n -> n.moves_aborted);
      ("redirects", fun n -> n.redirects);
      ("acked", fun n -> n.acked);
      ("crashes", fun n -> n.crashes);
    ]
  in
  List.iter
    (fun (name, tier, xtier) ->
      let p, (s : T.sharded) = folds name tier in
      let os = List.init schedules (fun i -> X.run_one ~seed:(i + 1) xtier) in
      List.iter
        (fun (field, get) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s summed" name field)
            (List.fold_left (fun acc (o : X.outcome) -> acc + get o.counts) 0 os)
            (get s.totals))
        fields;
      Alcotest.(check (option string)) (name ^ ": tier exercised") None
        (p.unexercised s))
    [ ("xshard", T.Xshard, X.Xshard); ("reshard", T.Reshard, X.Reshard) ]

(* The refusing side of each "exercised" rule: a batch that ran nothing
   fails with its tier's message. *)
let test_unexercised_batch_fails () =
  let module T = Grid_check.Tier in
  let refuses (type s) (tier : s T.t) what =
    let p = T.plug tier in
    Alcotest.(check (option string)) what (Some what)
      (p.unexercised (T.batch ~schedules:0 ~base_seed:1 p))
  in
  refuses T.Overload "no Overloaded pushback exercised";
  refuses T.Xshard "no cross-shard commit exercised";
  refuses T.Reshard "no live split, acked write, or committed cross txn exercised"

let suite =
  [
    ( "xshard.stress",
      [
        Alcotest.test_case "same seed, identical trace dump" `Quick
          test_traced_schedule_deterministic;
        Alcotest.test_case "batch folds its schedules" `Quick
          test_batch_folds_schedules;
        Alcotest.test_case "an unexercised batch fails its tier" `Quick
          test_unexercised_batch_fails;
        Alcotest.test_case "xshard seed 8509: the drain oracle merges replicas" `Quick
          (test_regression_seed Grid_check.Xstress.Xshard 8509);
        Alcotest.test_case "reshard seed 2767: a duplicated txn op applies once" `Quick
          (test_regression_seed Grid_check.Xstress.Reshard 2767);
      ] );
    ( "xshard.2pc",
      [
        Alcotest.test_case "cross-shard commit is atomic" `Quick test_cross_commit;
        Alcotest.test_case "participant leader crash between prepare and commit"
          `Quick test_participant_crash_between_prepare_and_commit;
        Alcotest.test_case "coordinator crash after partial prepare" `Quick
          test_coordinator_crash_partial_prepare;
        Alcotest.test_case "duplicate commit delivery is idempotent" `Quick
          test_duplicate_commit_delivery;
        Alcotest.test_case "a duplicated branch op applies once" `Quick
          test_duplicate_txn_op;
        Alcotest.test_case "router pin table bounded over 10^5 txns" `Slow
          test_pin_table_bounded;
      ] );
    ( "xshard.checker",
      [
        Alcotest.test_case "mixed decision" `Quick test_checker_mixed_decision;
        Alcotest.test_case "duplicate decision" `Quick
          test_checker_duplicate_decision;
        Alcotest.test_case "unresolved prepare" `Quick
          test_checker_unresolved_prepare;
        Alcotest.test_case "serialization cycle" `Quick
          test_checker_serialization_cycle;
      ] );
  ]
