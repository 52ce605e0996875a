(* Unit tests for the paxos building blocks: ballots, message codecs,
   the replica log, stable storage, snapshots and configuration. *)

module Types = Grid_paxos.Types
module Ballot = Grid_paxos.Types.Ballot
module Plog = Grid_paxos.Plog
module Storage = Grid_paxos.Storage
module Snapshot = Grid_paxos.Snapshot
module Config = Grid_paxos.Config
module Wire = Grid_codec.Wire
module Ids = Grid_util.Ids

let mk_req ?(client = 1) ?(seq = 1) ?(rtype = Types.Write) ?(payload = "p") () : Types.request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq; rtype; payload;
    trace = Types.no_trace }

let mk_proposal ?(payload = "p") ?(update = Types.Full "state") () : Types.proposal =
  {
    requests = [ mk_req ~payload () ];
    update;
    replies = [ { req = (mk_req ()).id; status = Types.Ok; payload = "r" } ];
  }

(* ------------------------------------------------------------------ *)
(* Ballots and proposal numbers *)

let test_ballot_order () =
  let b r h = Ballot.make ~round:r ~holder:h in
  Alcotest.(check bool) "round dominates" true (Ballot.compare (b 2 0) (b 1 5) > 0);
  Alcotest.(check bool) "holder breaks ties" true (Ballot.compare (b 1 2) (b 1 1) > 0);
  Alcotest.(check bool) "equal" true (Ballot.equal (b 3 1) (b 3 1));
  Alcotest.(check bool) "zero smallest" true (Ballot.compare Ballot.zero (b 0 0) < 0)

let prop_ballot_total_order =
  QCheck2.Test.make ~name:"ballot order is antisymmetric + transitive-ish" ~count:300
    QCheck2.Gen.(
      triple
        (pair (int_range 0 5) (int_range 0 5))
        (pair (int_range 0 5) (int_range 0 5))
        (pair (int_range 0 5) (int_range 0 5)))
    (fun ((r1, h1), (r2, h2), (r3, h3)) ->
      let a = Ballot.make ~round:r1 ~holder:h1 in
      let b = Ballot.make ~round:r2 ~holder:h2 in
      let c = Ballot.make ~round:r3 ~holder:h3 in
      let antisym = compare (Ballot.compare a b) (-(Ballot.compare b a)) = 0 in
      let trans =
        if Ballot.compare a b <= 0 && Ballot.compare b c <= 0 then
          Ballot.compare a c <= 0
        else true
      in
      antisym && trans)

let test_pnum_lexicographic () =
  let module Pnum = Grid_paxos.Types.Pnum in
  let p b i = Pnum.make ~ballot:(Ballot.make ~round:b ~holder:0) ~instance:i in
  Alcotest.(check bool) "ballot first" true (Pnum.compare (p 2 1) (p 1 99) > 0);
  Alcotest.(check bool) "instance second" true (Pnum.compare (p 1 2) (p 1 1) > 0)

let test_ballot_codec () =
  let b = Ballot.make ~round:42 ~holder:2 in
  let b' = Wire.decode (Wire.encode (fun e -> Ballot.encode e b)) Ballot.decode in
  Alcotest.(check bool) "roundtrip" true (Ballot.equal b b')

(* ------------------------------------------------------------------ *)
(* Message-component codecs *)

let gen_rtype =
  QCheck2.Gen.(
    oneof
      [
        return Types.Read;
        return Types.Write;
        return Types.Original;
        map (fun t -> Types.Txn_op t) (int_range 0 100);
        map (fun t -> Types.Txn_commit t) (int_range 0 100);
        map (fun t -> Types.Txn_abort t) (int_range 0 100);
      ])

let gen_request =
  QCheck2.Gen.(
    map
      (fun (client, seq, rtype, payload) ->
        ({ id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq;
           rtype;
           payload;
           trace = Types.no_trace }
          : Types.request))
      (quad (int_range 0 1000) (int_range 0 100000) gen_rtype string))

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request codec roundtrip" ~count:300 gen_request (fun r ->
      let r' =
        Wire.decode (Wire.encode (fun e -> Types.encode_request e r)) Types.decode_request
      in
      Ids.Request_id.equal r.id r'.id && r.rtype = r'.rtype && r.payload = r'.payload)

let gen_status = QCheck2.Gen.oneofl [ Types.Ok; Types.Txn_aborted; Types.Txn_conflict ]

let gen_reply =
  QCheck2.Gen.(
    map
      (fun (client, seq, status, payload) ->
        ({ req = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq;
           status;
           payload }
          : Types.reply))
      (quad (int_range 0 1000) (int_range 0 100000) gen_status string))

let prop_reply_roundtrip =
  QCheck2.Test.make ~name:"reply codec roundtrip" ~count:300 gen_reply (fun r ->
      let r' = Wire.decode (Wire.encode (fun e -> Types.encode_reply e r)) Types.decode_reply in
      r = r')

(* A request batch with its update: a witness replays exactly one op,
   so it rides a singleton batch. *)
let gen_batch =
  QCheck2.Gen.(
    oneof
      [
        pair (list_size (int_range 0 5) gen_request) (map (fun s -> Types.Full s) string);
        pair (list_size (int_range 0 5) gen_request) (map (fun s -> Types.Delta s) string);
        pair (map (fun r -> [ r ]) gen_request) (map (fun s -> Types.Witness s) string);
      ])

let prop_proposal_roundtrip =
  QCheck2.Test.make ~name:"proposal codec roundtrip" ~count:300
    QCheck2.Gen.(pair gen_batch (list_size (int_range 0 5) gen_reply))
    (fun ((requests, update), replies) ->
      let p : Types.proposal = { requests; update; replies } in
      let p' =
        Wire.decode (Wire.encode (fun e -> Types.encode_proposal e p)) Types.decode_proposal
      in
      p = p')

let test_update_size () =
  Alcotest.(check int) "size" 5 (Types.state_update_size (Types.Full "12345"));
  Alcotest.(check int) "delta size" 3 (Types.state_update_size (Types.Delta "abc"))

let test_client_node_mapping () =
  let c = Ids.Client_id.of_int 17 in
  let node = Types.client_node c in
  Alcotest.(check bool) "is client node" true (Types.node_is_client node);
  Alcotest.(check bool) "replica node is not" false (Types.node_is_client 2);
  Alcotest.(check int) "roundtrip" 17 (Ids.Client_id.to_int (Types.client_of_node node))

(* ------------------------------------------------------------------ *)
(* Plog *)

let ballot r = Ballot.make ~round:r ~holder:0

let test_plog_accept_commit () =
  let log = Plog.create () in
  Alcotest.(check int) "initial cp" 0 (Plog.commit_point log);
  Alcotest.(check bool) "accept 1" true (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ()));
  Alcotest.(check bool) "accept 2" true (Plog.accept log ~instance:2 ~ballot:(ballot 1) (mk_proposal ()));
  Alcotest.(check int) "max accepted" 2 (Plog.max_accepted log);
  Alcotest.(check bool) "commit 1" true (Plog.commit log ~instance:1);
  Alcotest.(check int) "cp 1" 1 (Plog.commit_point log);
  Alcotest.(check bool) "commit unknown" false (Plog.commit log ~instance:5)

let test_plog_commit_contiguity () =
  let log = Plog.create () in
  for i = 1 to 4 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1) (mk_proposal ()))
  done;
  ignore (Plog.commit log ~instance:3);
  Alcotest.(check int) "cp stalls before gap" 0 (Plog.commit_point log);
  ignore (Plog.commit log ~instance:1);
  Alcotest.(check int) "cp 1" 1 (Plog.commit_point log);
  ignore (Plog.commit log ~instance:2);
  Alcotest.(check int) "cp jumps over pre-committed 3" 3 (Plog.commit_point log)

let test_plog_ballot_overwrite () =
  let log = Plog.create () in
  ignore (Plog.accept log ~instance:1 ~ballot:(ballot 2) (mk_proposal ~payload:"high" ()));
  Alcotest.(check bool) "lower ballot rejected" false
    (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ~payload:"low" ()));
  Alcotest.(check bool) "higher ballot accepted" true
    (Plog.accept log ~instance:1 ~ballot:(ballot 3) (mk_proposal ~payload:"higher" ()));
  (match Plog.get log 1 with
  | Some e ->
    Alcotest.(check string) "latest proposal wins" "higher"
      (List.hd e.proposal.requests).payload
  | None -> Alcotest.fail "entry missing");
  ignore (Plog.commit log ~instance:1);
  Alcotest.(check bool) "committed entry never overwritten" false
    (Plog.accept log ~instance:1 ~ballot:(ballot 9) (mk_proposal ()))

let test_plog_accepted_above () =
  let log = Plog.create () in
  for i = 1 to 5 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1) (mk_proposal ()))
  done;
  ignore (Plog.commit log ~instance:1);
  ignore (Plog.commit log ~instance:2);
  let above = Plog.accepted_above log 2 in
  Alcotest.(check (list int)) "instances above 2" [ 3; 4; 5 ]
    (List.map (fun (e : Types.recovery_entry) -> e.instance) above)

let test_plog_prune () =
  let log = Plog.create () in
  for i = 1 to 3 do
    ignore (Plog.accept log ~instance:i ~ballot:(ballot 1)
              (mk_proposal ~update:(Types.Full "big state") ()));
    ignore (Plog.commit log ~instance:i)
  done;
  ignore (Plog.accept log ~instance:4 ~ballot:(ballot 1) (mk_proposal ()));
  Plog.prune_below log 2;
  Alcotest.(check bool) "entry 1 dropped" true (Plog.get log 1 = None);
  Alcotest.(check bool) "entry 2 dropped" true (Plog.get log 2 = None);
  Alcotest.(check bool) "entry 3 kept" true (Plog.get log 3 <> None);
  Alcotest.(check int) "only 3 and 4 held" 2 (Plog.entry_count log);
  Alcotest.(check int) "cp unchanged" 3 (Plog.commit_point log);
  Alcotest.(check (list int)) "accepted_above skips the truncated prefix" [ 3; 4 ]
    (List.map
       (fun (e : Types.recovery_entry) -> e.instance)
       (Plog.accepted_above log 0));
  Alcotest.(check bool) "late accept of a truncated instance refused" false
    (Plog.accept log ~instance:1 ~ballot:(ballot 9) (mk_proposal ()));
  Alcotest.(check bool) "and never re-stored" true (Plog.get log 1 = None);
  Alcotest.(check bool) "late commit of a truncated instance succeeds" true
    (Plog.commit log ~instance:2);
  Alcotest.(check int) "cp still 3" 3 (Plog.commit_point log);
  Alcotest.(check bool) "unknown instance above cp" false (Plog.commit log ~instance:6);
  Alcotest.check_raises "uncommitted entries are never pruned"
    (Invalid_argument "Plog.prune_below: floor above commit point")
    (fun () -> Plog.prune_below log 4)

let test_plog_install_commit_point () =
  let log = Plog.create () in
  ignore (Plog.accept log ~instance:1 ~ballot:(ballot 1) (mk_proposal ()));
  Plog.install_commit_point log 10;
  Alcotest.(check int) "cp jumped" 10 (Plog.commit_point log);
  Alcotest.(check bool) "old entries dropped" true (Plog.get log 1 = None);
  Plog.install_commit_point log 5;
  Alcotest.(check int) "never moves backward" 10 (Plog.commit_point log)

let test_plog_instance_validation () =
  let log = Plog.create () in
  Alcotest.check_raises "instance 0 invalid" (Invalid_argument "Plog.accept: instances start at 1")
    (fun () -> ignore (Plog.accept log ~instance:0 ~ballot:(ballot 1) (mk_proposal ())))

(* ------------------------------------------------------------------ *)
(* Storage *)

let test_storage_memory () =
  let store, read = Storage.memory () in
  store.persist_promise (ballot 3);
  store.persist_entry ~instance:1 ~ballot:(ballot 3) (mk_proposal ());
  store.persist_entry ~instance:2 ~ballot:(ballot 3) (mk_proposal ~payload:"q" ());
  store.persist_commit 1;
  store.persist_commit 0;  (* regressions ignored *)
  store.persist_snapshot "snap";
  let p = read () in
  Alcotest.(check bool) "promise" true (Ballot.equal (ballot 3) p.promised);
  Alcotest.(check int) "entries" 2 (List.length p.entries);
  Alcotest.(check int) "commit point" 1 p.commit_point;
  Alcotest.(check (option string)) "snapshot" (Some "snap") p.snapshot

let with_tmp f =
  let dir = Filename.temp_file "grid_storage" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Filename.concat dir "replica0"))

let test_storage_file_roundtrip () =
  with_tmp (fun path ->
      let store, recovered, _ = Storage.file ~path in
      Alcotest.(check bool) "fresh store empty" true (recovered = None);
      store.persist_promise (ballot 5);
      store.persist_entry ~instance:1 ~ballot:(ballot 5) (mk_proposal ~payload:"x" ());
      store.persist_commit 1;
      store.persist_snapshot "snappy";
      (* Reopen. *)
      let _store2, recovered2, _ = Storage.file ~path in
      match recovered2 with
      | None -> Alcotest.fail "expected recovery"
      | Some p ->
        Alcotest.(check bool) "promise" true (Ballot.equal (ballot 5) p.promised);
        Alcotest.(check int) "commit" 1 p.commit_point;
        Alcotest.(check (option string)) "snapshot" (Some "snappy") p.snapshot;
        (match p.entries with
        | [ e ] ->
          Alcotest.(check int) "instance" 1 e.instance;
          Alcotest.(check string) "payload" "x" (List.hd e.proposal.requests).payload
        | _ -> Alcotest.fail "expected one entry"))

(* The file store writes a snapshot's body and then its CRC trailer
   without building the framed string: the [.snap] file must still hold
   exactly [Wire.with_crc s], the last snapshot must win, and it must
   recover through a reopened store. *)
let test_storage_snap_file_bytes () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      let long = String.init 5000 (fun i -> Char.chr (i land 0xFF)) and short = "snap-2" in
      let read_snap () =
        let ic = open_in_bin (path ^ ".snap") in
        let b = really_input_string ic (in_channel_length ic) in
        close_in ic;
        b
      in
      store.persist_snapshot long;
      Alcotest.(check string) "first .snap" (Wire.with_crc long) (read_snap ());
      store.persist_snapshot short;
      Alcotest.(check string) "second .snap" (Wire.with_crc short) (read_snap ());
      let _, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "snapshot used" true report.snapshot_used;
      match recovered with
      | Some p -> Alcotest.(check (option string)) "recovered" (Some short) p.snapshot
      | None -> Alcotest.fail "expected recovery")

let test_storage_file_torn_tail () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_promise (ballot 2);
      store.persist_commit 7;
      (* Simulate a torn write: append garbage that parses as a frame
         header but fails the CRC. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (path ^ ".log") in
      output_string oc "\x08\x00\x00\x00garbage!";
      close_out oc;
      let _store2, recovered, _ = Storage.file ~path in
      match recovered with
      | None -> Alcotest.fail "expected recovery despite torn tail"
      | Some p ->
        Alcotest.(check int) "commit survives" 7 p.commit_point;
        Alcotest.(check bool) "promise survives" true (Ballot.equal (ballot 2) p.promised))

let test_storage_file_latest_entry_wins () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_entry ~instance:1 ~ballot:(ballot 1) (mk_proposal ~payload:"old" ());
      store.persist_entry ~instance:1 ~ballot:(ballot 2) (mk_proposal ~payload:"new" ());
      let _s, recovered, _ = Storage.file ~path in
      match recovered with
      | Some { entries = [ e ]; _ } ->
        Alcotest.(check string) "latest record wins" "new"
          (List.hd e.proposal.requests).payload
      | _ -> Alcotest.fail "expected single entry")

(* A driver without a store ignores the engine's records; one with a
   store writes each through its hook. *)
let test_storage_null () =
  let records =
    [
      Types.Promise (ballot 1);
      Entry { instance = 1; ballot = ballot 1; proposal = mk_proposal () };
      Commit_point 1;
      Snapshot "s";
    ]
  in
  let drive store =
    List.iter (fun p -> Option.iter (fun s -> Storage.apply s p) store) records
  in
  drive None;
  let mem, read = Storage.memory () in
  drive (Some mem);
  let p = read () in
  Alcotest.(check bool) "promise" true (Ballot.equal (ballot 1) p.promised);
  Alcotest.(check int) "entries" 1 (List.length p.entries);
  Alcotest.(check int) "commit point" 1 p.commit_point;
  Alcotest.(check (option string)) "snapshot" (Some "s") p.snapshot

(* Recovery edges: what the report says and what survives when the log
   is torn, bit-flipped, or missing. *)

let log_size path =
  let ic = open_in_bin (path ^ ".log") in
  let n = in_channel_length ic in
  close_in ic;
  n

let xor_byte file off =
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* A process crash at any point of a record sequence written through
   [Storage.file] leaves what its writes completed, plus at most one
   unfinished write: part of a log frame, or a snapshot temp file (empty,
   partial or whole) that was never renamed. Recovery must give exactly
   the image [Storage.memory] holds after the completed records: a crash
   keeps a prefix of what was written, the rule the model checker's torn
   persists ([Mcheck.persist_step]) follow. A salvaged half frame is
   reported and cut off, so the next recovery is clean. Each recovery
   leaves its store's log channel open, so a frame is cut at one point
   of each kind (in the length header, just after it, in the body,
   before and inside the CRC trailer) rather than at every byte. *)
let test_storage_crash_keeps_prefix () =
  let module Rng = Grid_util.Rng in
  let read_file f =
    if Sys.file_exists f then begin
      let ic = open_in_bin f in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s
    end
    else None
  in
  let write_file f s =
    let oc = open_out_bin f in
    output_string oc s;
    close_out oc
  in
  let image = function
    | None -> (Ballot.zero, [], 0, None)
    | Some (p : Storage.persisted) ->
      (p.promised, List.sort compare p.entries, p.commit_point, p.snapshot)
  in
  let entry instance round payload : Types.persist =
    Entry { instance; ballot = ballot round; proposal = mk_proposal ~payload () }
  in
  let random_record rng : Types.persist =
    match Rng.int rng 4 with
    | 0 -> Promise (ballot (Rng.int rng 5))
    | 1 -> entry (1 + Rng.int rng 3) (Rng.int rng 5) (string_of_int (Rng.int rng 100))
    | 2 -> Commit_point (Rng.int rng 8)
    | _ -> Snapshot (Printf.sprintf "snap-%d" (Rng.int rng 100))
  in
  (* Later records that lower the promise or the commit point, or
     overwrite an entry, then three random sequences. *)
  let sequences =
    [ Types.Promise (ballot 3); entry 1 3 "a"; Commit_point 4; Snapshot "s1";
      entry 1 2 "b"; Commit_point 2; Promise (ballot 1); Snapshot "s2" ]
    :: List.init 3 (fun seed ->
           let rng = Rng.of_int (seed + 1) in
           List.init (6 + Rng.int rng 6) (fun _ -> random_record rng))
  in
  List.iteri
    (fun seq records ->
      with_tmp (fun path ->
          (* The files after each completed record, and the memory image. *)
          let store, _, _ = Storage.file ~path in
          let mem, read = Storage.memory () in
          let disk () =
            ( Option.value ~default:"" (read_file (path ^ ".log")),
              read_file (path ^ ".snap"),
              read () )
          in
          let initial = disk () in
          let states =
            initial
            :: List.map
                 (fun r ->
                   Storage.apply store r;
                   Storage.apply mem r;
                   disk ())
                 records
          in
          with_tmp (fun crash ->
              let recover ~log ~snap ~tmp =
                List.iter
                  (fun ext -> if Sys.file_exists (crash ^ ext) then Sys.remove (crash ^ ext))
                  [ ".log"; ".snap"; ".snap.tmp" ];
                write_file (crash ^ ".log") log;
                Option.iter (write_file (crash ^ ".snap")) snap;
                Option.iter (write_file (crash ^ ".snap.tmp")) tmp;
                let _, recovered, report = Storage.file ~path:crash in
                (image recovered, report)
              in
              List.iteri
                (fun i (log, snap, p) ->
                  let what = Printf.sprintf "sequence %d, after %d records" seq i in
                  let expected = image (Some p) in
                  let got, _ = recover ~log ~snap ~tmp:None in
                  Alcotest.(check bool) (what ^ ": image") true (got = expected);
                  match (List.nth_opt records i, List.nth_opt states (i + 1)) with
                  | Some (Snapshot _), Some (_, Some next, _) ->
                    List.iter
                      (fun j ->
                        let got, _ = recover ~log ~snap ~tmp:(Some (String.sub next 0 j)) in
                        Alcotest.(check bool)
                          (Printf.sprintf "%s, snapshot temp file of %d bytes" what j)
                          true (got = expected))
                      [ 0; String.length next / 2; String.length next ]
                  | Some _, Some (next, _, _) ->
                    let len = String.length next - String.length log in
                    List.iter
                      (fun j ->
                        let what = Printf.sprintf "%s, frame cut at byte %d of %d" what j len in
                        let got, report =
                          recover ~log:(String.sub next 0 (String.length log + j)) ~snap
                            ~tmp:None
                        in
                        Alcotest.(check bool) (what ^ ": image") true (got = expected);
                        Alcotest.(check bool) (what ^ ": torn tail flagged") true
                          report.Storage.torn_tail;
                        Alcotest.(check bool) (what ^ ": log truncated") true
                          report.log_truncated;
                        Alcotest.(check int) (what ^ ": half frame dropped") j
                          report.bytes_dropped)
                      (List.sort_uniq compare
                         (List.filter
                            (fun j -> j > 0 && j < len)
                            [ 1; 3; 4; 5; len / 2; len - 4; len - 3; len - 1 ]));
                    (* The salvage cut the log to its valid prefix. *)
                    let _, again, report = Storage.file ~path:crash in
                    Alcotest.(check bool) (what ^ ": next recovery clean") false
                      (report.Storage.torn_tail || report.interior_corruption
                     || report.log_truncated || report.bytes_dropped > 0);
                    Alcotest.(check bool) (what ^ ": next image") true (image again = expected)
                  | _ -> ())
                states)))
    sequences

let test_storage_interior_corruption () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_promise (ballot 9);
      store.persist_commit 2;
      let prefix_len = log_size path in
      store.persist_entry ~instance:3 ~ballot:(ballot 9) (mk_proposal ~payload:"mid" ());
      store.persist_entry ~instance:4 ~ballot:(ballot 9) (mk_proposal ~payload:"last" ());
      (* Flip a bit inside the instance-3 record: its CRC fails while
         valid-looking data (the instance-4 record) sits behind it — the
         untrusted suffix is abandoned, the prefix salvaged. *)
      xor_byte (path ^ ".log") (prefix_len + 6);
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "interior corruption flagged" true
        report.Storage.interior_corruption;
      Alcotest.(check bool) "log truncated" true report.log_truncated;
      Alcotest.(check int) "prefix salvaged" prefix_len report.bytes_salvaged;
      Alcotest.(check bool) "suffix abandoned" true (report.bytes_dropped > 0);
      match recovered with
      | None -> Alcotest.fail "prefix must recover"
      | Some p ->
        Alcotest.(check int) "commit survives" 2 p.commit_point;
        (* The lost instances resync from peers at runtime. *)
        Alcotest.(check int) "corrupt-suffix entries gone" 0
          (List.length p.entries))

let test_storage_snapshot_only () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_snapshot "snap-only";
      (* Lose the log entirely. *)
      Sys.remove (path ^ ".log");
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "snapshot used" true report.Storage.snapshot_used;
      Alcotest.(check bool) "no corruption flagged" false
        (report.torn_tail || report.interior_corruption || report.snapshot_corrupt);
      match recovered with
      | None -> Alcotest.fail "snapshot alone must recover"
      | Some p ->
        Alcotest.(check (option string)) "snapshot body" (Some "snap-only") p.snapshot;
        Alcotest.(check int) "no entries" 0 (List.length p.entries))

let test_storage_snapshot_corrupt () =
  with_tmp (fun path ->
      let store, _, _ = Storage.file ~path in
      store.persist_commit 5;
      store.persist_snapshot "to-be-mangled";
      xor_byte (path ^ ".snap") 2;
      let _s, recovered, report = Storage.file ~path in
      Alcotest.(check bool) "snapshot corruption detected" true
        report.Storage.snapshot_corrupt;
      Alcotest.(check bool) "corrupt snapshot not used" false report.snapshot_used;
      match recovered with
      | None -> Alcotest.fail "log must still recover"
      | Some p ->
        Alcotest.(check (option string)) "fell back to log replay" None p.snapshot;
        Alcotest.(check int) "commit from log" 5 p.commit_point)

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_roundtrip () =
  let snap =
    {
      Snapshot.commit_point = 12;
      state = "opaque-state";
      dedup =
        [
          (1, { Types.req = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq:3;
                status = Types.Ok; payload = "r1" });
          (2, { Types.req = Ids.Request_id.make ~client:(Ids.Client_id.of_int 2) ~seq:9;
                status = Types.Txn_aborted; payload = "" });
        ];
      prepared = [ (1_000_000_007, "opaque-branch") ];
      outcomes = [ (1_000_000_001, true); (1_000_000_002, false) ];
      reshard = "";
    }
  in
  let snap' = Snapshot.decode (Snapshot.encode snap) in
  Alcotest.(check int) "cp" 12 snap'.commit_point;
  Alcotest.(check string) "state" "opaque-state" snap'.state;
  Alcotest.(check int) "dedup size" 2 (List.length snap'.dedup);
  Alcotest.(check int) "prepared size" 1 (List.length snap'.prepared);
  Alcotest.(check bool) "outcomes roundtrip"
    true
    (snap'.outcomes = [ (1_000_000_001, true); (1_000_000_002, false) ])

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_quorum () =
  Alcotest.(check int) "n=1" 1 (Config.quorum (Config.default ~n:1));
  Alcotest.(check int) "n=3" 2 (Config.quorum (Config.default ~n:3));
  Alcotest.(check int) "n=4" 3 (Config.quorum (Config.default ~n:4));
  Alcotest.(check int) "n=5" 3 (Config.quorum (Config.default ~n:5));
  Alcotest.(check int) "n=7" 4 (Config.quorum (Config.default ~n:7))

let test_config_replica_ids () =
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Config.replica_ids (Config.default ~n:3))

let test_config_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Config.default: need at least one replica")
    (fun () -> ignore (Config.default ~n:0))

(* ------------------------------------------------------------------ *)
(* Footprint: the one conflict relation, checked against the list-based
   predicates it replaced. *)

module Footprint = Grid_paxos.Footprint

let ref_overlaps a b =
  a <> [] && b <> []
  && (List.mem "*" a || List.mem "*" b || List.exists (fun k -> List.mem k b) a)

let ref_hits ranges fps =
  let in_range k (lo, hi) =
    String.compare k lo >= 0
    && match hi with None -> true | Some h -> String.compare k h < 0
  in
  ranges <> [] && fps <> []
  && (List.mem "*" fps || List.exists (fun k -> List.exists (in_range k) ranges) fps)

(* Small alphabets, so duplicates, shared keys and range edges are common. *)
let gen_keys =
  QCheck2.Gen.(
    list_size (int_range 0 5) (oneofl [ "*"; "a"; "b"; "b2"; "c"; "d"; "kv/x" ]))

let gen_ranges =
  QCheck2.Gen.(
    list_size (int_range 0 3)
      (pair (oneofl [ ""; "a"; "b"; "c" ]) (opt (oneofl [ "a"; "b"; "b2"; "c"; "e" ]))))

let print_keys = QCheck2.Print.(list string)

let prop_footprint_overlaps =
  QCheck2.Test.make ~name:"footprint overlaps = list reference" ~count:1000
    ~print:QCheck2.Print.(triple print_keys print_keys print_keys)
    QCheck2.Gen.(triple gen_keys gen_keys gen_keys)
    (fun (a, b, c) ->
      let fa = Footprint.of_keys a and fb = Footprint.of_keys b in
      Footprint.overlaps fa fb = ref_overlaps a b
      && Footprint.overlaps (Footprint.union fa fb) (Footprint.of_keys c)
         = ref_overlaps (a @ b) c
      && Footprint.of_keys (Footprint.keys fa) = fa)

let prop_footprint_hits_ranges =
  QCheck2.Test.make ~name:"footprint hits_ranges = list reference" ~count:1000
    QCheck2.Gen.(pair gen_keys gen_ranges)
    (fun (keys, ranges) ->
      Footprint.hits_ranges (Footprint.of_keys keys) ranges = ref_hits ranges keys)

let test_footprint_cases () =
  let fp = Footprint.of_keys in
  Alcotest.(check bool) "empty vs wildcard" false (Footprint.overlaps (fp []) (fp [ "*" ]));
  Alcotest.(check bool) "wildcard vs key" true (Footprint.overlaps (fp [ "*" ]) (fp [ "a" ]));
  Alcotest.(check (list string)) "sorted, deduplicated" [ "a"; "b" ]
    (Footprint.keys (fp [ "b"; "a"; "b" ]));
  Alcotest.(check (list string)) "wildcard absorbs" [ "*" ]
    (Footprint.keys (Footprint.union (fp [ "a" ]) (fp [ "b"; "*" ])));
  Alcotest.(check bool) "open-ended range" true
    (Footprint.hits_ranges (fp [ "zz" ]) [ ("m", None) ]);
  Alcotest.(check bool) "no ranges" false (Footprint.hits_ranges (fp [ "*" ]) [])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "paxos.ballot",
      Alcotest.test_case "order" `Quick test_ballot_order
      :: Alcotest.test_case "pnum lexicographic" `Quick test_pnum_lexicographic
      :: Alcotest.test_case "codec" `Quick test_ballot_codec
      :: qcheck [ prop_ballot_total_order ] );
    ( "paxos.codecs",
      Alcotest.test_case "update size" `Quick test_update_size
      :: Alcotest.test_case "client node mapping" `Quick test_client_node_mapping
      :: qcheck [ prop_request_roundtrip; prop_reply_roundtrip; prop_proposal_roundtrip ] );
    ( "paxos.plog",
      [
        Alcotest.test_case "accept/commit" `Quick test_plog_accept_commit;
        Alcotest.test_case "commit contiguity" `Quick test_plog_commit_contiguity;
        Alcotest.test_case "ballot overwrite rules" `Quick test_plog_ballot_overwrite;
        Alcotest.test_case "accepted_above" `Quick test_plog_accepted_above;
        Alcotest.test_case "prune" `Quick test_plog_prune;
        Alcotest.test_case "install commit point" `Quick test_plog_install_commit_point;
        Alcotest.test_case "instance validation" `Quick test_plog_instance_validation;
      ] );
    ( "paxos.storage",
      [
        Alcotest.test_case "memory roundtrip" `Quick test_storage_memory;
        Alcotest.test_case "file roundtrip" `Quick test_storage_file_roundtrip;
        Alcotest.test_case ".snap bytes = with_crc" `Quick test_storage_snap_file_bytes;
        Alcotest.test_case "torn tail tolerated" `Quick test_storage_file_torn_tail;
        Alcotest.test_case "latest entry wins" `Quick test_storage_file_latest_entry_wins;
        Alcotest.test_case "null storage" `Quick test_storage_null;
        Alcotest.test_case "crash keeps a prefix" `Quick test_storage_crash_keeps_prefix;
        Alcotest.test_case "interior corruption salvages prefix" `Quick
          test_storage_interior_corruption;
        Alcotest.test_case "snapshot-only recovery" `Quick test_storage_snapshot_only;
        Alcotest.test_case "corrupt snapshot falls back to log" `Quick
          test_storage_snapshot_corrupt;
      ] );
    ( "paxos.footprint",
      Alcotest.test_case "wildcard and empty" `Quick test_footprint_cases
      :: qcheck [ prop_footprint_overlaps; prop_footprint_hits_ranges ] );
    ("paxos.snapshot", [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip ]);
    ( "paxos.config",
      [
        Alcotest.test_case "quorum" `Quick test_config_quorum;
        Alcotest.test_case "replica ids" `Quick test_config_replica_ids;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
  ]
