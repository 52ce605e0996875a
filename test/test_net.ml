(* TCP transport tests: framing over a socketpair, plus a real loopback
   cluster (3 replicas + a client) driving the same engines the simulator
   runs. *)

module Framing = Grid_net.Framing
module Wire = Grid_codec.Wire
module Wire_codec = Grid_paxos.Wire_codec
module Counter = Grid_services.Counter
module Config = Grid_paxos.Config
open Grid_paxos.Types

module Tcp = Grid_net.Tcp_node.Make (Counter)
module C1 = Framing.Codec (Wire_codec.V1)
module C2 = Framing.Codec (Wire_codec.V2)

(* ------------------------------------------------------------------ *)
(* Framing *)

let read_frame_ok what fd =
  match Framing.read_frame fd with
  | Stdlib.Ok payload -> payload
  | Stdlib.Error e -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Framing.pp_read_error e)

let test_framing_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let n = Framing.write_frame a "hello frame" in
      Alcotest.(check int) "bytes = header + payload + crc" (4 + 11 + 4) n;
      Alcotest.(check string) "roundtrip" "hello frame" (read_frame_ok "roundtrip" b);
      ignore (Framing.write_frame a "");
      Alcotest.(check string) "empty payload" "" (read_frame_ok "empty" b);
      let big = String.make 100_000 'z' in
      ignore (Framing.write_frame a big);
      Alcotest.(check string) "large payload" big (read_frame_ok "large" b))

let test_framing_closed () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      Alcotest.(check bool) "eof is a typed Eof, not an exception" true
        (Framing.read_frame b = Stdlib.Error Framing.Eof))

let test_framing_corruption () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* A frame whose CRC does not match its payload. *)
      let bogus = "\x08\x00\x00\x00ABCDWXYZ" in
      ignore (Unix.write_substring a bogus 0 (String.length bogus));
      Alcotest.(check bool) "corruption detected as typed Corrupt" true
        (match Framing.read_frame b with Stdlib.Error (Framing.Corrupt _) -> true | _ -> false))

let test_framing_truncated_body () =
  (* EOF in the middle of a frame body is corruption, not a clean Eof. *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      let partial = "\x40\x00\x00\x00only-a-few-bytes" in
      ignore (Unix.write_substring a partial 0 (String.length partial));
      Unix.close a;
      Alcotest.(check bool) "truncated body is Corrupt" true
        (match Framing.read_frame b with Stdlib.Error (Framing.Corrupt _) -> true | _ -> false))

let sample_msgs =
  [
    Client_req
      { id = Grid_util.Ids.Request_id.make ~client:(Grid_util.Ids.Client_id.of_int 4) ~seq:2;
        rtype = Read;
        payload = "op";
        trace = no_trace };
    Prepare { ballot = Ballot.make ~round:3 ~holder:1; commit_point = 17 };
    Accept
      { ballot = Ballot.make ~round:3 ~holder:1;
        instance = 18;
        proposal = { requests = []; update = Full "state"; replies = [] } };
    Commit { ballot = Ballot.make ~round:3 ~holder:1; instance = 18 };
    Heartbeat
      { round_seen = 5;
        commit_point = 17;
        promised = Ballot.make ~round:3 ~holder:1;
        sent_at = 42.5;
        lease_anchor = 40.0 };
    Catchup { snapshot = "snap" };
  ]

let test_msg_wire_roundtrip () =
  (* Both negotiated codecs must carry the same messages over a socket. *)
  List.iter
    (fun (name, write_msg, read_msg) ->
      let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          List.iter (fun m -> ignore (write_msg a m)) sample_msgs;
          List.iter
            (fun expected ->
              match read_msg b with
              | Stdlib.Ok (got, bytes) ->
                Alcotest.(check string)
                  (name ^ ": message kinds match")
                  (msg_kind expected) (msg_kind got);
                Alcotest.(check bool) (name ^ ": byte count positive") true (bytes > 8)
              | Stdlib.Error e ->
                Alcotest.failf "%s: %s" name
                  (Format.asprintf "%a" Framing.pp_read_error e))
            sample_msgs))
    [ ("v1", C1.write_msg, C1.read_msg); ("v2", C2.write_msg, C2.read_msg) ]

(* ------------------------------------------------------------------ *)
(* Loopback cluster *)

let free_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

let test_loopback_cluster () =
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      (* Wait for an election. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        if List.exists Tcp.replica_is_leader replicas then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no leader elected on loopback cluster"
        else begin
          Thread.delay 0.02;
          wait_leader ()
        end
      in
      wait_leader ();
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () ->
          (* Five writes then a read, synchronously. *)
          for k = 1 to 5 do
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "write %d timed out" k)
          done;
          (match Tcp.call_op client Counter.Get ~timeout_s:5.0 with
          | Some reply ->
            Alcotest.(check int) "read sees all writes" 15
              (Counter.decode_result reply.payload)
          | None -> Alcotest.fail "read timed out");
          (* All replicas converge. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait_converged () =
            let states = List.map Tcp.replica_state replicas in
            if List.for_all (fun s -> s = 15) states then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail
                (Printf.sprintf "replicas did not converge: %s"
                   (String.concat "," (List.map string_of_int states)))
            else begin
              Thread.delay 0.02;
              wait_converged ()
            end
          in
          wait_converged ()))

let test_loopback_mixed_versions () =
  (* One replica capped at wire V1 (an un-upgraded build): connections
     touching it negotiate V1, the V2↔V2 pair keeps V2, and the cluster
     still commits. *)
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let version_of = function 1 -> 1 | _ -> 2 in
  let replicas =
    List.map
      (fun i ->
        Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i)
          ~max_wire_version:(version_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        if List.exists Tcp.replica_is_leader replicas then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no leader elected on mixed-version cluster"
        else begin
          Thread.delay 0.02;
          wait_leader ()
        end
      in
      wait_leader ();
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () ->
          for k = 1 to 5 do
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply ->
              Alcotest.(check bool) "mixed-version write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "mixed-version write %d timed out" k)
          done;
          (* Every negotiated version is min(local, peer). *)
          List.iteri
            (fun i h ->
              List.iter
                (fun (peer, v) ->
                  if not (node_is_client peer) then
                    Alcotest.(check int)
                      (Printf.sprintf "replica %d <-> %d negotiated min" i peer)
                      (min (version_of i) (version_of peer))
                      v)
                (Tcp.replica_peer_versions h))
            replicas;
          (* The client (latest) speaks V1 to the capped replica and V2 to
             the rest. *)
          List.iter
            (fun (peer, v) ->
              Alcotest.(check int)
                (Printf.sprintf "client <-> replica %d negotiated min" peer)
                (version_of peer) v)
            (Tcp.client_peer_versions client);
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait_converged () =
            let states = List.map Tcp.replica_state replicas in
            if List.for_all (fun s -> s = 15) states then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail
                (Printf.sprintf "mixed-version replicas did not converge: %s"
                   (String.concat "," (List.map string_of_int states)))
            else begin
              Thread.delay 0.02;
              wait_converged ()
            end
          in
          wait_converged ()))

(* ------------------------------------------------------------------ *)
(* Admin endpoint: the replica port answers plain HTTP alongside the
   protocol handshake. *)

let http_get port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      (try drain () with Unix.Unix_error _ -> ());
      let raw = Buffer.contents buf in
      let status =
        match String.index_opt raw '\r' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let body =
        let sep = "\r\n\r\n" in
        let n = String.length raw and k = String.length sep in
        let rec find i =
          if i + k > n then ""
          else if String.sub raw i k = sep then String.sub raw (i + k) (n - i - k)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub haystack i k = needle || scan (i + 1)) in
  scan 0

let test_admin_endpoint () =
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        if List.exists Tcp.replica_is_leader replicas then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no leader elected on loopback cluster"
        else begin
          Thread.delay 0.02;
          wait_leader ()
        end
      in
      wait_leader ();
      let leader_id =
        let rec find i = function
          | [] -> Alcotest.fail "leader vanished"
          | r :: rest -> if Tcp.replica_is_leader r then i else find (i + 1) rest
        in
        find 0 replicas
      in
      (* Commit some work so the scrape reflects live state. *)
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () ->
          for k = 1 to 3 do
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "write %d timed out" k)
          done;
          (* /health on the leader: role, commit point, zero violations,
             wire-version visibility. *)
          let status, body = http_get ports.(leader_id) "/health" in
          Alcotest.(check bool) "health 200" true (contains status "200");
          Alcotest.(check bool) "health says leader" true
            (contains body {|"role":"leader"|});
          Alcotest.(check bool) "health has commit point" true
            (contains body {|"commit_point":|});
          Alcotest.(check bool) "health watchdog silent" true
            (contains body {|"watchdog_violations":0|});
          Alcotest.(check bool) "health reports wire version" true
            (contains body
               (Printf.sprintf {|"wire_version":%d|} Wire_codec.latest_version));
          Alcotest.(check bool) "health reports peer wire versions" true
            (contains body {|"peer_wire_versions":{|});
          (* No migration has run: epoch 0, idle, nothing moved. *)
          Alcotest.(check bool) "health reports reshard state" true
            (contains body
               {|"reshard":{"epoch":0,"phase":"idle","moved_ranges":0,"imported_items":0}|});
          let _, body = http_get ports.((leader_id + 1) mod 3) "/health" in
          Alcotest.(check bool) "health says follower" true
            (contains body {|"role":"follower"|});
          (* /metrics: Prometheus exposition with transport and watchdog
             series. *)
          let status, body = http_get ports.(leader_id) "/metrics" in
          Alcotest.(check bool) "metrics 200" true (contains status "200");
          Alcotest.(check bool) "metrics transport counters" true
            (contains body "grid_net_messages_sent_total");
          Alcotest.(check bool) "metrics byte counters" true
            (contains body "grid_net_bytes_total");
          Alcotest.(check bool) "metrics per-kind byte counters" true
            (contains body "grid_net_bytes_total_accept");
          Alcotest.(check bool) "metrics per-peer wire version gauges" true
            (contains body "grid_net_wire_version_peer_");
          Alcotest.(check bool) "metrics decode errors silent" true
            (contains body "grid_net_decode_errors_total 0");
          Alcotest.(check bool) "metrics watchdog silent" true
            (contains body "grid_watchdog_violations_total 0");
          Alcotest.(check bool) "metrics reshard epoch gauge" true
            (contains body "grid_reshard_epoch 0");
          Alcotest.(check bool) "metrics reshard migrating gauge" true
            (contains body "grid_reshard_migrating 0");
          (* /flightrec: the always-on recorder dumps parseable JSONL. *)
          let status, body = http_get ports.(leader_id) "/flightrec" in
          Alcotest.(check bool) "flightrec 200" true (contains status "200");
          let events = Grid_obs.Span.load_string body in
          Alcotest.(check bool) "flightrec has events" true (events <> []);
          (* Unknown paths 404; the protocol survives admin traffic. *)
          let status, _ = http_get ports.(leader_id) "/nope" in
          Alcotest.(check bool) "404 on unknown path" true (contains status "404");
          (match Tcp.call_op client Counter.Get ~timeout_s:5.0 with
          | Some reply ->
            Alcotest.(check int) "protocol alive after admin scrapes" 6
              (Counter.decode_result reply.payload)
          | None -> Alcotest.fail "read after admin scrapes timed out");
          List.iter
            (fun r ->
              Alcotest.(check int) "watchdog silent on every replica" 0
                (Grid_obs.Watchdog.violations (Tcp.replica_watchdog r)))
            replicas))

(* The admin sniff must classify a peer by whatever prefix has arrived,
   not stall or guess from the first byte: an HTTP client and a protocol
   peer both dribbling one byte at a time must land on their own path. *)
let test_sniff_dribbling_clients () =
  let port = free_port () in
  let cfg = Config.make ~n:1 ~hb_period_ms:10.0 ~suspicion_ms:60.0 () in
  let r = Tcp.start_replica ~cfg ~id:0 ~port ~peers:[] () in
  Fun.protect
    ~finally:(fun () -> Tcp.stop_replica r)
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let dribble fd s ~head =
        String.iteri
          (fun i c ->
            ignore (Unix.write_substring fd (String.make 1 c) 0 1);
            if i < head then Thread.delay 0.004)
          s
      in
      (* HTTP client, one byte at a time through the whole method. *)
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd addr;
          dribble fd "GET /health HTTP/1.0\r\n\r\n" ~head:6;
          let buf = Bytes.create 4096 in
          let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
          let raw = Bytes.sub_string buf 0 (max n 0) in
          Alcotest.(check bool) "dribbled GET answered with HTTP 200" true
            (contains raw "200"));
      (* Protocol peer: capture a real hello frame via a socketpair, then
         dribble its first bytes; the replica must still answer with its
         own hello instead of handing the socket to the HTTP responder. *)
      let sp_a, sp_b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
      Framing.write_hello sp_a ~node_id:9 ~max_version:Wire_codec.latest_version;
      let hbuf = Bytes.create 256 in
      let hn = Unix.read sp_b hbuf 0 256 in
      Unix.close sp_a;
      Unix.close sp_b;
      let hello_raw = Bytes.sub_string hbuf 0 hn in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd addr;
          dribble fd hello_raw ~head:3;
          match Framing.read_hello fd with
          | Stdlib.Ok (peer, _) ->
            Alcotest.(check int) "dribbled hello negotiated with replica" 0 peer
          | Stdlib.Error e ->
            Alcotest.failf "dribbled protocol peer misclassified: %a"
              Framing.pp_read_error e))

let test_loopback_duplicate_request () =
  (* A client retransmission arriving after the commit must hit the dedup
     table: the leader resends the cached reply and the op is not applied
     a second time. Speaks the wire protocol directly so both copies
     carry the identical request id. *)
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    List.map
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      [ 0; 1; 2 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Tcp.stop_replica replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        match List.find_opt (fun (_, h) -> Tcp.replica_is_leader h)
                (List.mapi (fun i h -> (i, h)) replicas)
        with
        | Some (i, _) -> i
        | None ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "no leader elected on loopback cluster"
          else begin
            Thread.delay 0.02;
            wait_leader ()
          end
      in
      let leader = wait_leader () in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.setsockopt fd TCP_NODELAY true;
          Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
          Unix.connect fd (addr leader);
          let cid = Grid_util.Ids.Client_id.of_int 9 in
          (* Speak the handshake by hand: advertise V2, read the
             replica's hello back, and check the negotiation result. *)
          Framing.write_hello fd ~node_id:(client_node cid) ~max_version:2;
          (match Framing.read_hello fd with
          | Stdlib.Ok (peer_id, peer_max) ->
            Alcotest.(check int) "hello echoes the replica id" leader peer_id;
            Alcotest.(check int) "replica advertises latest version"
              Wire_codec.latest_version peer_max
          | Stdlib.Error e ->
            Alcotest.failf "hello ack: %s"
              (Format.asprintf "%a" Framing.pp_read_error e));
          let req =
            { id = Grid_util.Ids.Request_id.make ~client:cid ~seq:1;
              rtype = Write;
              payload = Counter.encode_op (Counter.Add 7);
              trace = no_trace }
          in
          let read_reply what =
            match C2.read_msg fd with
            | Stdlib.Ok (Reply_msg r, _) -> r
            | Stdlib.Ok (m, _) -> Alcotest.failf "%s: expected a reply, got %s" what (msg_kind m)
            | Stdlib.Error e ->
              Alcotest.failf "%s: %s" what
                (Format.asprintf "%a" Framing.pp_read_error e)
          in
          ignore (C2.write_msg fd (Client_req req));
          let r1 = read_reply "first send" in
          Alcotest.(check bool) "first reply ok" true (r1.status = Ok);
          (* Retransmit the identical request after the commit. *)
          ignore (C2.write_msg fd (Client_req req));
          let r2 = read_reply "duplicate send" in
          Alcotest.(check bool) "cached reply ok" true (r2.status = Ok);
          Alcotest.(check string) "cached reply payload identical" r1.payload
            r2.payload;
          (* Exactly-once: the +7 was applied a single time. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait_converged () =
            let states = List.map Tcp.replica_state replicas in
            if List.for_all (fun s -> s = 7) states then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail
                (Printf.sprintf "states after duplicate delivery: %s"
                   (String.concat "," (List.map string_of_int states)))
            else begin
              Thread.delay 0.02;
              wait_converged ()
            end
          in
          wait_converged ()))

(* A 3-replica loopback cluster with a leader elected and one client
   connected: [f ~stop ~leader client], where [stop i] stops replica [i]. *)
let with_cluster f =
  let ports = Array.init 3 (fun _ -> free_port ()) in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    Array.init 3 (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
  in
  let stopped = Array.make 3 false in
  let stop i =
    if not stopped.(i) then begin
      stopped.(i) <- true;
      Tcp.stop_replica replicas.(i)
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun i _ -> stop i) replicas)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_leader () =
        let leaders = List.filter (fun i -> Tcp.replica_is_leader replicas.(i)) [ 0; 1; 2 ] in
        match leaders with
        | i :: _ -> i
        | [] ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "no leader elected on loopback cluster"
          else begin
            Thread.delay 0.02;
            wait_leader ()
          end
      in
      let leader = wait_leader () in
      let client =
        Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ]) ()
      in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_client client)
        (fun () -> f ~stop ~leader client))

let test_sigpipe_ignored () =
  (* Writing to a peer that has just closed raises SIGPIPE; with the
     default disposition that kills the whole process. The runtime must
     ignore it so the transport sees EPIPE and drops the connection. *)
  let saved = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved)
    (fun () ->
      with_cluster (fun ~stop ~leader client ->
          Alcotest.(check bool) "runtime ignores SIGPIPE" true
            (Sys.signal Sys.sigpipe Sys.Signal_ignore = Sys.Signal_ignore);
          let call k =
            match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
            | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
            | None -> Alcotest.fail (Printf.sprintf "write %d timed out" k)
          in
          call 1;
          (* Stop a follower: the leader's accepts and heartbeats and the
             client's broadcasts keep writing to its closed sockets. *)
          stop ((leader + 1) mod 3);
          for k = 2 to 30 do
            call k;
            Thread.delay 0.005
          done;
          match Tcp.call_op client Counter.Get ~timeout_s:5.0 with
          | Some reply ->
            Alcotest.(check int) "every write applied once" (30 * 31 / 2)
              (Counter.decode_result reply.payload)
          | None -> Alcotest.fail "read after the stop timed out"))

let test_call_never_returns_stale_reply () =
  (* A call that times out leaves its request outstanding; its reply
     arrives later. No later call may return it. Each call adds a
     distinct power of ten, so a reply belongs to the call that sent it
     iff the counter value it reports includes that call's digit. *)
  with_cluster (fun ~stop:_ ~leader:_ client ->
      ignore (Tcp.call_op client (Counter.Add 1) ~timeout_s:0.0);
      let last_seq = ref 0 and answered = ref 0 in
      for i = 1 to 6 do
        let k = int_of_float (10.0 ** float_of_int i) in
        let t0 = Unix.gettimeofday () in
        match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
        | Some reply ->
          incr answered;
          Alcotest.(check bool)
            (Printf.sprintf "call %d got its own reply" i)
            true
            (Counter.decode_result reply.payload / k mod 10 = 1);
          Alcotest.(check bool) "request ids strictly increase" true
            (reply.req.seq > !last_seq);
          last_seq := reply.req.seq
        | None ->
          (* Refused while the timed-out request is outstanding: at once,
             not after waiting out the timeout. *)
          Alcotest.(check bool) "busy call returns at once" true
            (Unix.gettimeofday () -. t0 < 1.0);
          Thread.delay 0.05
      done;
      Alcotest.(check bool) "later calls complete" true (!answered >= 4))

let suite =
  [
    ( "net.framing",
      [
        Alcotest.test_case "roundtrip" `Quick test_framing_roundtrip;
        Alcotest.test_case "closed" `Quick test_framing_closed;
        Alcotest.test_case "corruption" `Quick test_framing_corruption;
        Alcotest.test_case "truncated body" `Quick test_framing_truncated_body;
        Alcotest.test_case "msg wire roundtrip (v1+v2)" `Quick test_msg_wire_roundtrip;
      ] );
    ( "net.loopback",
      [
        Alcotest.test_case "3-replica cluster + client" `Slow test_loopback_cluster;
        Alcotest.test_case "mixed wire versions negotiate min" `Slow
          test_loopback_mixed_versions;
        Alcotest.test_case "admin endpoint serves metrics/health/flightrec" `Slow
          test_admin_endpoint;
        Alcotest.test_case "duplicate request hits the dedup table" `Slow
          test_loopback_duplicate_request;
        Alcotest.test_case "sniff classifies dribbling clients" `Slow
          test_sniff_dribbling_clients;
        Alcotest.test_case "SIGPIPE ignored: calls survive a stopped peer" `Slow
          test_sigpipe_ignored;
        Alcotest.test_case "call never returns a stale reply" `Slow
          test_call_never_returns_stale_reply;
      ] );
  ]
