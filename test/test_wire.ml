(* Property and fuzz tier for the versioned wire codecs (V1, V2).

   Three obligations:
   - every [Types.msg] constructor roundtrips through every codec
     version (exhaustive samples + randomized instances);
   - decoding is total: truncations, byte flips and random garbage
     produce a typed [Error], never an exception or silent garbage;
   - the version plumbing (negotiate, of_version, header magic,
     reserved flag bits, cross-version rejection) behaves as
     DESIGN.md §15 specifies.

   Message equality goes through the V1 frame (every field present, no
   header) rather than [(=)]: lease anchors and heartbeat clocks are
   floats that can be [nan], and [nan <> nan] would fail structural
   comparison on messages that are byte-identical on the wire. *)

module Types = Grid_paxos.Types
module WC = Grid_paxos.Wire_codec
module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf
module Ids = Grid_util.Ids

let codecs =
  [ (module WC.V1 : Wire_intf.WIRE with type msg = Types.msg); (module WC.V2) ]

(* Canonical bytes of a message: its V1 frame. Equal canon = equal
   message, nan-safe. *)
let canon = WC.V1.encode

(* ------------------------------------------------------------------ *)
(* Exhaustive constructor samples. *)

let ballot = Types.Ballot.make ~round:3 ~holder:1

let req ?(rtype = Types.Write) ?(trace = Types.no_trace) ?(payload = "op") seq :
    Types.request =
  { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 4) ~seq;
    rtype; payload; trace }

let traced = { Types.tid = 77; parent = "span-3" }

let reply ?(status = Types.Ok) ?(payload = "res") seq : Types.reply =
  { req = (req seq).id; status; payload }

let proposal_aligned : Types.proposal =
  { requests = [ req 1; req 2 ];
    update = Types.Delta "d";
    replies = [ reply 1; reply 2 ] }

let proposal_misaligned : Types.proposal =
  (* Reply ids do not match the request batch: V2 must fall back to the
     positional-id-free encoding. *)
  { requests = [ req 1 ];
    update = Types.Full "state";
    replies = [ reply 9 ] }

(* At least one sample per constructor, plus the variants that exercise
   each V2 flag and escape path (traced/untraced, lease present/absent,
   aligned/misaligned, option arms). *)
let sample_msgs : (string * Types.msg) list =
  [
    ("client_req", Client_req (req 1));
    ("client_req traced", Client_req (req ~trace:traced 2));
    ("client_req txn", Client_req (req ~rtype:(Types.Txn_op 5) 3));
    ("client_req txn_prepare",
     Client_req (req ~rtype:(Types.Txn_prepare 1_000_000_042) 4));
    ("client_req reshard_freeze",
     Client_req (req ~rtype:(Types.Reshard_freeze 3) 5));
    ("client_req reshard_install",
     Client_req (req ~rtype:(Types.Reshard_install 3) 6));
    ("client_req reshard_commit",
     Client_req (req ~rtype:(Types.Reshard_commit 3) 7));
    ("client_req reshard_abort",
     Client_req (req ~rtype:(Types.Reshard_abort 3) 8));
    ("reply", Reply_msg (reply 1));
    ("reply overloaded",
     Reply_msg (reply ~status:(Types.Overloaded { retry_after_ms = 12.5 }) 2));
    ("reply wrong_epoch",
     Reply_msg (reply ~status:(Types.Wrong_epoch { epoch = 4; map = "map!" }) 3));
    ("prepare", Prepare { ballot; commit_point = 41 });
    ("prepare_ack empty",
     Prepare_ack { ballot; commit_point = 41; snapshot = None; accepted = [] });
    ("prepare_ack full",
     Prepare_ack
       { ballot; commit_point = 41; snapshot = Some "snap";
         accepted =
           [ { Types.instance = 42; ballot; proposal = proposal_aligned } ] });
    ("accept", Accept { ballot; instance = 42; proposal = proposal_aligned });
    ("accept misaligned",
     Accept { ballot; instance = 42; proposal = proposal_misaligned });
    ("accept traced",
     Accept
       { ballot; instance = 43;
         proposal =
           { proposal_aligned with requests = [ req ~trace:traced 1; req 2 ] } });
    ("accept_ack", Accept_ack { ballot; instance = 42 });
    ("reject", Reject { promised = ballot });
    ("commit", Commit { ballot; instance = 42 });
    ("read_confirm leased",
     Read_confirm { ballot; req = (req 5).id; lease_anchor = 123.5 });
    ("read_confirm no lease",
     Read_confirm { ballot; req = (req 5).id; lease_anchor = Float.nan });
    ("heartbeat leased",
     Heartbeat
       { round_seen = 3; commit_point = 41; promised = ballot; sent_at = 99.25;
         lease_anchor = 98.0 });
    ("heartbeat no lease",
     Heartbeat
       { round_seen = 3; commit_point = 41; promised = ballot; sent_at = 99.25;
         lease_anchor = Float.nan });
    ("catchup_req", Catchup_req { from_instance = 17 });
    ("catchup", Catchup { snapshot = String.make 100 's' });
    ("sp_estimate none", Sp_estimate { instance = 7; round = 2; estimate = None });
    ("sp_estimate some",
     Sp_estimate
       { instance = 7; round = 2; estimate = Some (proposal_aligned, 1) });
    ("sp_propose",
     Sp_propose { instance = 7; round = 2; proposal = proposal_aligned });
    ("sp_ack", Sp_ack { instance = 7; round = 2 });
    ("sp_decide", Sp_decide { instance = 7; proposal = proposal_misaligned });
  ]

let test_every_constructor_roundtrips () =
  (* The sample set must cover all 16 wire tags. *)
  let tags =
    List.sort_uniq compare (List.map (fun (_, m) -> Types.msg_tag m) sample_msgs)
  in
  Alcotest.(check int) "all 16 tags sampled" 16 (List.length tags);
  List.iter
    (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
      List.iter
        (fun (name, m) ->
          match W.decode (W.encode m) with
          | Stdlib.Ok m' ->
            Alcotest.(check string)
              (Printf.sprintf "v%d %s" W.version name)
              (canon m) (canon m')
          | Stdlib.Error e ->
            Alcotest.fail
              (Printf.sprintf "v%d %s: %s" W.version name
                 (Wire_intf.decode_error_to_string e)))
        sample_msgs)
    codecs

(* ------------------------------------------------------------------ *)
(* Version plumbing. *)

let test_negotiate () =
  Alcotest.(check (option int)) "min wins" (Some 1)
    (WC.negotiate ~local_max:2 ~peer_max:1);
  Alcotest.(check (option int)) "symmetric" (Some 1)
    (WC.negotiate ~local_max:1 ~peer_max:2);
  Alcotest.(check (option int)) "latest" (Some 2)
    (WC.negotiate ~local_max:2 ~peer_max:2);
  Alcotest.(check (option int)) "future peer capped" (Some 2)
    (WC.negotiate ~local_max:2 ~peer_max:9);
  Alcotest.(check (option int)) "below min rejected" None
    (WC.negotiate ~local_max:2 ~peer_max:0)

let test_of_version () =
  List.iter
    (fun v ->
      match WC.of_version v with
      | Some (module W : Wire_intf.WIRE with type msg = Types.msg) ->
        Alcotest.(check int) "version field" v W.version
      | None -> Alcotest.fail (Printf.sprintf "version %d should resolve" v))
    [ 1; 2 ];
  Alcotest.(check bool) "0 unknown" true (WC.of_version 0 = None);
  Alcotest.(check bool) "3 unknown" true (WC.of_version 3 = None);
  Alcotest.check_raises "of_version_exn on unknown"
    (Invalid_argument "Wire_codec.of_version_exn: version 9") (fun () ->
      ignore (WC.of_version_exn 9))

let is_error = function Stdlib.Error _ -> true | Stdlib.Ok _ -> false

let test_cross_version_rejection () =
  (* A V2 frame starts with the 0xA2 header byte, which V1 reads as an
     out-of-range message tag; a V1 frame starts with a tag varint that
     fails V2's magic check. Neither can be misparsed as the other. *)
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "v1 rejects v2 bytes" true
        (is_error (WC.V1.decode (WC.V2.encode m)));
      Alcotest.(check bool) "v2 rejects v1 bytes" true
        (is_error (WC.V2.decode (WC.V1.encode m))))
    sample_msgs

let test_v2_header_validation () =
  let m = Types.Accept { ballot; instance = 42; proposal = proposal_aligned } in
  let s = WC.V2.encode m in
  Alcotest.(check int) "magic nibble" 0xA (Char.code s.[0] lsr 4);
  Alcotest.(check int) "version nibble" 2 (Char.code s.[0] land 0xF);
  (* Reserved flag bit: a decoder that ignored it would silently
     misparse frames from a future minor revision. *)
  let reserved = Bytes.of_string s in
  Bytes.set reserved 1 (Char.chr (Char.code s.[1] lor 0x80));
  Alcotest.(check bool) "reserved flag rejected" true
    (is_error (WC.V2.decode (Bytes.to_string reserved)));
  (* Future version in the header: not ours to parse. *)
  let future = Bytes.of_string s in
  Bytes.set future 0 (Wire_intf.header_byte ~version:3);
  Alcotest.(check bool) "future version rejected" true
    (is_error (WC.V2.decode (Bytes.to_string future)));
  (* The LEASE flag says whether the lease float is there: a body that
     disagrees with it either way is malformed, not a different valid
     message. *)
  let flip_lease m =
    let s = Bytes.of_string (WC.V2.encode m) in
    Bytes.set s 1 (Char.chr (Char.code (Bytes.get s 1) lxor 0x20));
    Bytes.to_string s
  in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " with its LEASE bit flipped rejected") true
        (is_error (WC.V2.decode (flip_lease m))))
    (List.filter
       (fun (_, m) ->
         match m with Types.Read_confirm _ | Types.Heartbeat _ -> true | _ -> false)
       sample_msgs);
  (* A flag the message has nothing for would leave a second encoding of
     it, and a bit flip that lands there would go unnoticed; each is a
     typed error at the flag byte. So is a frame whose flags fit its tag
     but not its content: a V1 body (every request traced, no proposal
     aligned) behind a V2 header. *)
  let at_pos_1 name s =
    match WC.V2.decode s with
    | Stdlib.Error e -> Alcotest.(check int) (name ^ " rejected at pos 1") 1 e.pos
    | Stdlib.Ok _ -> Alcotest.failf "%s decoded" name
  in
  let with_flag flag m =
    let s = Bytes.of_string (WC.V2.encode m) in
    Bytes.set s 1 (Char.chr (Char.code (Bytes.get s 1) lor flag));
    Bytes.to_string s
  in
  List.iter
    (fun (name, flag, m) -> at_pos_1 name (with_flag flag m))
    [
      ("TRACED on commit", 0x10, Types.Commit { ballot; instance = 7 });
      ("ALIGNED on client_req", 0x40, Types.Client_req (req 1));
      ("LEASE on accept", 0x20, m);
      ("TRACED on an empty estimate", 0x10,
       Types.Sp_estimate { instance = 7; round = 1; estimate = None });
      ("ALIGNED on an empty prepare_ack", 0x40,
       Types.Prepare_ack { ballot; commit_point = 41; snapshot = None; accepted = [] });
      ("TRACED on an accept without requests", 0x10,
       Types.Accept
         { ballot; instance = 7;
           proposal = { requests = []; update = Types.Delta "d"; replies = [] } });
    ];
  let v1 = WC.V1.encode m in
  at_pos_1 "v1 accept body behind a TRACED v2 header"
    (Printf.sprintf "%c%c%s" s.[0] (Char.chr (Types.msg_tag m lor 0x10))
       (String.sub v1 1 (String.length v1 - 1)));
  (* Degenerate inputs. *)
  List.iter
    (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d empty rejected" W.version)
        true
        (is_error (W.decode ""));
      Alcotest.(check bool)
        (Printf.sprintf "v%d one byte rejected" W.version)
        true
        (is_error (W.decode "\xA2")))
    codecs

let test_decode_error_metadata () =
  List.iter
    (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
      match W.decode "" with
      | Stdlib.Error e ->
        Alcotest.(check int) "error names its codec" W.version e.version
      | Stdlib.Ok _ -> Alcotest.fail "empty input decoded")
    codecs

let test_witness_batch_rejected () =
  (* Only a singleton's witness can be replayed. An encoder will write a
     [Witness] over any batch, so a frame carrying one over two requests
     (or none) is crafted here; every codec must refuse it at decode,
     where the transport counts it and drops the connection. *)
  let accept requests =
    Types.Accept
      { ballot; instance = 5;
        proposal =
          { requests; update = Types.Witness "w";
            replies = List.map (fun (r : Types.request) -> reply r.id.seq) requests } }
  in
  List.iter
    (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
      List.iter
        (fun (what, rs) ->
          match W.decode (W.encode (accept rs)) with
          | Stdlib.Error _ -> ()
          | Stdlib.Ok _ -> Alcotest.failf "v%d decoded a witness over %s" W.version what)
        [ ("two requests", [ req 1; req 2 ]); ("no request", []) ];
      match W.decode (W.encode (accept [ req 1 ])) with
      | Stdlib.Ok m -> Alcotest.(check string) "singleton witness" (canon (accept [ req 1 ])) (canon m)
      | Stdlib.Error e -> Alcotest.fail (Wire_intf.decode_error_to_string e))
    codecs

let test_sign_bit_flip_is_typed_error () =
  (* A flipped byte can set the sign bit of a nine-byte varint. The
     decoder used to hand the resulting negative int to
     [Client_id.of_int], which raised [Invalid_argument] out of decode. *)
  let max_id = String.make 8 '\xff' ^ "\x3f" (* uint max_int *) in
  let m =
    Types.Client_req
      { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int max_int) ~seq:1;
        rtype = Types.Write; payload = "op"; trace = Types.no_trace }
  in
  List.iter
    (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
      let s = W.encode m in
      let n = String.length max_id in
      let rec find i =
        if i + n > String.length s then Alcotest.fail "client id varint not found"
        else if String.sub s i n = max_id then i
        else find (i + 1)
      in
      let flipped = Bytes.of_string s in
      let last = find 0 + n - 1 in
      Bytes.set flipped last (Char.chr (Char.code s.[last] lxor 0x40));
      Alcotest.(check bool)
        (Printf.sprintf "v%d sign-bit flip is a typed Error" W.version)
        true
        (match W.decode (Bytes.to_string flipped) with
        | r -> is_error r
        | exception _ -> false))
    codecs

(* ------------------------------------------------------------------ *)
(* Randomized instances and fuzz. *)

open QCheck2

let gen_payload = Gen.(string_size (int_bound 24))

let gen_trace =
  Gen.oneof
    [ Gen.return Types.no_trace;
      Gen.map2
        (fun tid parent -> { Types.tid = tid + 1; parent })
        (Gen.int_bound 1000) gen_payload ]

let gen_rtype =
  Gen.oneofl
    [ Types.Read; Types.Write; Types.Original; Types.Txn_op 3;
      Types.Txn_commit 9; Types.Txn_abort 9;
      Types.Txn_prepare 1_000_000_007;
      Types.Reshard_freeze 1; Types.Reshard_install 2;
      Types.Reshard_commit 3; Types.Reshard_abort 4 ]

let gen_status =
  Gen.oneofl
    [ Types.Ok; Types.Txn_aborted; Types.Txn_conflict; Types.Retry;
      Types.Overloaded { retry_after_ms = 40.0 };
      Types.Wrong_epoch { epoch = 7; map = "m" };
      Types.Wrong_epoch { epoch = 1; map = "" } ]

let gen_ballot =
  Gen.map2
    (fun round holder -> Types.Ballot.make ~round ~holder)
    Gen.small_nat (Gen.int_bound 4)

let gen_float = Gen.oneofl [ 0.0; 1.5; -2.25; 9999.125; Float.nan ]

let gen_request =
  Gen.map3
    (fun (client, seq) (rtype, payload) trace ->
      { Types.id =
          Ids.Request_id.make ~client:(Ids.Client_id.of_int client)
            ~seq:(seq + 1);
        rtype; payload; trace })
    (Gen.pair (Gen.int_bound 9) (Gen.int_bound 100))
    (Gen.pair gen_rtype gen_payload)
    gen_trace

let gen_reply_for (r : Types.request) =
  Gen.map2
    (fun status payload -> { Types.req = r.id; status; payload })
    gen_status gen_payload

let gen_proposal =
  (* Half the time the replies line up with the request batch (the
     committed-entry shape V2 encodes positionally), half the time they
     do not. *)
  let open Gen in
  gen_request >>= fun r1 ->
  gen_request >>= fun r2 ->
  gen_reply_for r1 >>= fun p1 ->
  gen_reply_for r2 >>= fun p2 ->
  gen_reply_for r2 >>= fun stray ->
  map2
    (fun update aligned ->
      (* A witness replays exactly one op, so it rides a singleton. *)
      let requests, lined_up =
        match update with
        | Types.Witness _ -> ([ r1 ], [ p1 ])
        | _ -> ([ r1; r2 ], [ p1; p2 ])
      in
      { Types.requests; update; replies = (if aligned then lined_up else [ stray ]) })
    (oneofl
       [ Types.Full "full-state"; Types.Delta "delta"; Types.Witness "w" ])
    bool

let gen_msg =
  let open Gen in
  gen_ballot >>= fun ballot ->
  gen_request >>= fun r ->
  gen_proposal >>= fun p ->
  gen_reply_for r >>= fun rep ->
  gen_float >>= fun f1 ->
  gen_float >>= fun f2 ->
  int_bound 100 >>= fun n ->
  oneofl
    [ Types.Client_req r;
      Types.Reply_msg rep;
      Types.Prepare { ballot; commit_point = n };
      Types.Prepare_ack
        { ballot; commit_point = n; snapshot = None; accepted = [] };
      Types.Prepare_ack
        { ballot; commit_point = n; snapshot = Some "snap";
          accepted = [ { Types.instance = n + 1; ballot; proposal = p } ] };
      Types.Accept { ballot; instance = n; proposal = p };
      Types.Accept_ack { ballot; instance = n };
      Types.Reject { promised = ballot };
      Types.Commit { ballot; instance = n };
      Types.Read_confirm { ballot; req = r.id; lease_anchor = f1 };
      Types.Heartbeat
        { round_seen = n; commit_point = n; promised = ballot; sent_at = f1;
          lease_anchor = f2 };
      Types.Catchup_req { from_instance = n };
      Types.Catchup { snapshot = "snap" };
      Types.Sp_estimate { instance = n; round = 2; estimate = None };
      Types.Sp_estimate { instance = n; round = 2; estimate = Some (p, 1) };
      Types.Sp_propose { instance = n; round = 2; proposal = p };
      Types.Sp_ack { instance = n; round = 2 };
      Types.Sp_decide { instance = n; proposal = p } ]

let prop_roundtrip (module W : Wire_intf.WIRE with type msg = Types.msg) =
  Test.make
    ~name:(Printf.sprintf "v%d roundtrips random messages" W.version)
    ~count:400 gen_msg (fun m ->
      match W.decode (W.encode m) with
      | Stdlib.Ok m' -> canon m' = canon m
      | Stdlib.Error _ -> false)

let prop_cross_version_agreement =
  (* Decoding a message through either version yields the same message
     (canonically) — upgrading a link cannot change what is delivered. *)
  Test.make ~name:"v1/v2 decode to the same message" ~count:400 gen_msg (fun m ->
      match (WC.V1.decode (WC.V1.encode m), WC.V2.decode (WC.V2.encode m)) with
      | Stdlib.Ok a, Stdlib.Ok b -> canon a = canon b
      | _ -> false)

(* Decoding never raises: every mangled input yields Ok or a typed
   Error. (An [Ok] is legitimate — a flip inside a payload string is a
   different valid message.) *)
let total_decode (module W : Wire_intf.WIRE with type msg = Types.msg) s =
  match W.decode s with
  | Stdlib.Ok _ | Stdlib.Error _ -> true
  | exception e ->
    Printf.eprintf "v%d decode raised %s\n" W.version (Printexc.to_string e);
    false

let prop_truncation_total (module W : Wire_intf.WIRE with type msg = Types.msg)
    =
  Test.make
    ~name:(Printf.sprintf "v%d truncated frames decode totally" W.version)
    ~count:400
    Gen.(pair gen_msg (int_bound 1000))
    (fun (m, cut) ->
      let s = W.encode m in
      let s = String.sub s 0 (cut mod max 1 (String.length s)) in
      total_decode (module W) s)

let prop_byteflip_total (module W : Wire_intf.WIRE with type msg = Types.msg) =
  Test.make
    ~name:(Printf.sprintf "v%d byte-flipped frames decode totally" W.version)
    ~count:600
    Gen.(triple gen_msg (int_bound 10_000) (int_range 1 255))
    (fun (m, pos, x) ->
      let s = Bytes.of_string (W.encode m) in
      let pos = pos mod Bytes.length s in
      Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor x));
      total_decode (module W) (Bytes.to_string s))

let prop_garbage_total (module W : Wire_intf.WIRE with type msg = Types.msg) =
  Test.make
    ~name:(Printf.sprintf "v%d random garbage decodes totally" W.version)
    ~count:600
    Gen.(string_size (int_bound 64))
    (fun s -> total_decode (module W) s)

(* ------------------------------------------------------------------ *)
(* Golden bytes. The roundtrip properties above would still pass if an
   encoder and its decoder changed layout together; this digest pins the
   bytes themselves. It covers both versions' frames for every sample
   and for 1,000 seeded random messages, the storage layouts of a
   request, a proposal, a snapshot and a prepared branch, and the
   [{version; pos; msg}] of a fixed set of malformed frames. A change
   that alters any of them breaks rolling upgrades and persisted images,
   so the constant must only ever change with a new wire version. *)

let golden_digest = "dc4a00d90e90fc7c1927ffce5bf035a9"

let golden_bytes () =
  let b = Buffer.create 65536 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let random = Gen.generate ~rand:(Random.State.make [| 33 |]) ~n:1000 gen_msg in
  List.iter
    (fun m ->
      add (WC.V1.encode m);
      add (WC.V2.encode m))
    (List.map snd sample_msgs @ random);
  add (Wire.encode (fun e -> Types.encode_request e (req ~trace:traced 9)));
  add (Wire.encode (fun e -> Types.encode_proposal e proposal_aligned));
  add (Wire.encode (fun e -> Types.encode_proposal e proposal_misaligned));
  add
    (Grid_paxos.Snapshot.encode
       { commit_point = 64; state = "kv-state"; dedup = [ (4, reply 3) ];
         prepared = [ (11, "branch") ]; outcomes = [ (10, true); (12, false) ];
         reshard = "rs" });
  add
    (Grid_paxos.Committed.encode_prepared
       { p_ops = [ (req 1, Some "w"); (req ~rtype:(Types.Txn_op 2) 2, None) ];
         p_replies = [ reply 1; reply 2 ];
         p_footprint = Grid_paxos.Footprint.of_keys [ "kv/a"; "kv/b" ] });
  let accept = Types.Accept { ballot; instance = 42; proposal = proposal_aligned } in
  let v1 = WC.V1.encode accept and v2 = WC.V2.encode accept in
  let reserved = Bytes.of_string v2 in
  Bytes.set reserved 1 (Char.chr (Char.code v2.[1] lor 0x80));
  let malformed =
    [ String.sub v1 0 (String.length v1 / 2);
      String.sub v2 0 (String.length v2 / 2);
      "\x10"; "\x80\x01"; "\xA2\x0F\x01"; v1; Bytes.to_string reserved; "" ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun (module W : Wire_intf.WIRE with type msg = Types.msg) ->
          match W.decode s with
          | Stdlib.Ok m -> add ("ok " ^ canon m)
          | Stdlib.Error { version; pos; msg } ->
            add (Printf.sprintf "error %d %d %s" version pos msg))
        codecs)
    malformed;
  Buffer.contents b

let test_golden_bytes () =
  Alcotest.(check string) "digest of every pinned encoding" golden_digest
    (Digest.to_hex (Digest.string (golden_bytes ())))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "wire.versions",
      [
        Alcotest.test_case "every constructor roundtrips" `Quick
          test_every_constructor_roundtrips;
        Alcotest.test_case "negotiate" `Quick test_negotiate;
        Alcotest.test_case "of_version" `Quick test_of_version;
        Alcotest.test_case "cross-version rejection" `Quick
          test_cross_version_rejection;
        Alcotest.test_case "v2 header validation" `Quick
          test_v2_header_validation;
        Alcotest.test_case "decode errors name their codec" `Quick
          test_decode_error_metadata;
        Alcotest.test_case "sign-bit flip in a varint is a typed error" `Quick
          test_sign_bit_flip_is_typed_error;
        Alcotest.test_case "a witness over a batch is rejected" `Quick
          test_witness_batch_rejected;
        Alcotest.test_case "golden bytes of both versions and storage" `Quick
          test_golden_bytes;
      ] );
    ( "wire.properties",
      qcheck
        (List.concat_map
           (fun w ->
             [ prop_roundtrip w; prop_truncation_total w; prop_byteflip_total w;
               prop_garbage_total w ])
           codecs
        @ [ prop_cross_version_agreement ]) );
  ]
