(* TCP transport tests: framing over a socketpair, plus a real loopback
   cluster (3 replicas + a client) driving the same engines the simulator
   runs. *)

module Framing = Grid_net.Framing
module Frame = Grid_codec.Frame
module Storage = Grid_paxos.Storage
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

(* The incremental reader against the blocking one: a stream of random
   frames (with bad CRCs, bad lengths and a truncated tail mixed in), fed
   in random chunks, yields exactly the frames and the first error that
   [read_frame] reads off the whole stream. *)
let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF))
let frame payload = let f = Wire.with_crc payload in le32 (String.length f) ^ f

let gen_stream =
  let open QCheck2.Gen in
  let payload =
    string_size ~gen:char (frequency [ (8, int_range 0 200); (1, int_range 3000 12000) ])
  in
  let bad_crc =
    let* p = payload in
    let f = Bytes.of_string (frame p) in
    let+ i = int_range 4 (Bytes.length f - 1) in
    Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor 0x5a));
    Bytes.to_string f
  in
  let bad_len =
    map le32 (oneof [ int_range 0 3; int_range (Framing.max_frame + 1) (Framing.max_frame + 99) ])
  in
  let piece = frequency [ (12, map frame payload); (1, bad_crc); (1, bad_len) ] in
  let* s = map (String.concat "") (list_size (int_range 0 12) piece) in
  let* cut = frequency [ (1, pure (String.length s)); (1, int_range 0 (String.length s)) ] in
  let+ chunks = list_size (int_range 1 30) (int_range 1 700) in
  (String.sub s 0 cut, chunks)

let blocking_frames s =
  let path = Filename.temp_file "frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      let fd = Unix.openfile path [ O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let rec go acc =
            match Framing.read_frame fd with
            | Stdlib.Ok p -> go (Stdlib.Ok p :: acc)
            | Stdlib.Error e -> List.rev (Stdlib.Error e :: acc)
          in
          go []))

let incremental_frames (s, chunks) =
  let r = Framing.reader () in
  let rec drain acc =
    match Frame.next_frame r with
    | None -> `More acc
    | Some (Stdlib.Ok p) -> drain (Stdlib.Ok p :: acc)
    | Some (Stdlib.Error e) -> `Done (List.rev (Stdlib.Error e :: acc))
  in
  let rec go pos sizes acc =
    if pos >= String.length s then List.rev (Stdlib.Error (Frame.eof_error r) :: acc)
    else
      let size, sizes = match sizes with k :: rest -> (k, rest) | [] -> (1, []) in
      let sizes = if sizes = [] then chunks else sizes in
      let n = min size (String.length s - pos) in
      Frame.feed r s pos n;
      match drain acc with `More acc -> go (pos + n) sizes acc | `Done l -> l
  in
  go 0 chunks []

let prop_incremental_reader =
  QCheck2.Test.make ~name:"incremental reader = read_frame" ~count:300 gen_stream
    (fun (s, chunks) -> incremental_frames (s, chunks) = blocking_frames s)

(* The disk side of the same reader: [Storage.file] recovers a log that
   holds the stream. It keeps exactly the frames [read_frame] reads
   before its first error, calls a bad frame a torn tail when its
   claimed end reaches the end of the file and interior corruption when
   bytes follow it, cuts the file to the kept prefix in place, and
   recovers clean the second time. Each recovery leaves its log channel
   open, so this runs fewer cases than the wire property. *)
let prop_disk_reader =
  QCheck2.Test.make ~name:"disk reader = read_frame" ~count:100 gen_stream (fun (s, _) ->
      let good =
        List.filter_map (function Stdlib.Ok p -> Some p | Stdlib.Error _ -> None) (blocking_frames s)
      in
      let prefix = List.fold_left (fun n p -> n + Frame.overhead + String.length p) 0 good in
      let len = String.length s in
      let claimed_end =
        if len - prefix < 4 then len
        else prefix + 4 + (Int32.to_int (String.get_int32_le s prefix) land 0xFFFF_FFFF)
      in
      let path = Filename.temp_file "disk_reader" "" in
      let log = path ^ ".log" in
      Fun.protect
        ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; log ])
        (fun () ->
          Out_channel.with_open_bin log (fun oc -> output_string oc s);
          let _, _, (r : Storage.recovery_report) = Storage.file ~path in
          let kept = In_channel.with_open_bin log In_channel.input_all in
          let _, _, again = Storage.file ~path in
          r.frames_ok = List.length good
          && r.bytes_salvaged = prefix
          && r.bytes_dropped = len - prefix
          && r.torn_tail = (prefix < len && claimed_end >= len)
          && r.interior_corruption = (prefix < len && claimed_end < len)
          && r.log_truncated = (prefix < len)
          && kept = String.sub s 0 prefix
          && again.frames_ok = r.frames_ok
          && not (again.torn_tail || again.interior_corruption || again.log_truncated
                 || again.bytes_dropped > 0)))

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

(* Loopback ports for a 3-replica cluster. Each is held by a probe socket
   bound with SO_REUSEADDR and not listening until its owner has bound
   it: Linux's ephemeral allocator skips a bound port, so no dial can
   take it in between, while a replica binding with SO_REUSEADDR still
   can. A probe closed at once, as in [free_port], leaves that window
   open, and the replica's bind fails with EADDRINUSE. *)
type reserved = { ports : int array; probes : Unix.file_descr option array }

let reserve_ports () =
  let probe () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
    fd
  in
  let probes = Array.init 3 (fun _ -> probe ()) in
  let port fd = match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> assert false in
  { ports = Array.map port probes; probes = Array.map Option.some probes }

(* Port [i]'s owner has bound it: its probe closes. *)
let claimed r i =
  Option.iter Unix.close r.probes.(i);
  r.probes.(i) <- None

(* Every 3-replica start: [start i] for each of [ids], claiming each port
   once its replica is up. If a start raises, the replicas already
   started are stopped and every probe closes. *)
let start_replicas r start stop ids =
  let started = ref [] in
  match
    List.iter
      (fun i ->
        started := start i :: !started;
        claimed r i)
      ids
  with
  | () -> List.rev !started
  | exception e ->
    List.iter stop !started;
    Array.iteri (fun i _ -> claimed r i) r.probes;
    raise e

let test_loopback_cluster () =
  let r = reserve_ports () in
  let ports = r.ports in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    start_replicas r
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      Tcp.stop_replica [ 0; 1; 2 ]
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
  let r = reserve_ports () in
  let ports = r.ports in
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
    start_replicas r
      (fun i ->
        Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i)
          ~max_wire_version:(version_of i) ())
      Tcp.stop_replica [ 0; 1; 2 ]
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
  let r = reserve_ports () in
  let ports = r.ports in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    start_replicas r
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      Tcp.stop_replica [ 0; 1; 2 ]
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
  let r = reserve_ports () in
  let ports = r.ports in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    start_replicas r
      (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
      Tcp.stop_replica [ 0; 1; 2 ]
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
  let r = reserve_ports () in
  let ports = r.ports in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let replicas =
    Array.of_list
      (start_replicas r
         (fun i -> Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ())
         Tcp.stop_replica [ 0; 1; 2 ])
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

(* ------------------------------------------------------------------ *)
(* One thread per node: nothing a peer does (or fails to do) blocks a
   node's loop. *)

(* Run [f] on its own thread and fail if it is not done within
   [seconds]: a transport that hangs fails the test instead of wedging
   the suite. *)
let within what seconds f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () -> Atomic.set result (Some (try Stdlib.Ok (f ()) with e -> Stdlib.Error e)))
       ());
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some (Stdlib.Ok ()) -> ()
    | Some (Stdlib.Error e) -> raise e
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "%s: not done within %.0f s" what seconds;
      Thread.delay 0.01;
      wait ()
  in
  wait ()

let await what ~seconds p =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if not (p ()) then begin
      if Unix.gettimeofday () > deadline then Alcotest.failf "%s: timed out" what;
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let fast_cfg =
  Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
    ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Replicas [ids] of a 3-replica cluster on [r.ports], with a leader. *)
let with_replicas (type h) r (start : int -> h) (is_leader : h -> bool) (stop : h -> unit)
    ids f =
  let hs = start_replicas r start stop ids in
  Fun.protect
    ~finally:(fun () -> List.iter stop hs)
    (fun () ->
      await "leader" ~seconds:3.0 (fun () -> List.exists is_leader hs);
      f hs)

let start_counter ports i =
  let peers = List.filter_map (fun j -> if j = i then None else Some (j, loopback ports.(j))) [ 0; 1; 2 ] in
  Tcp.start_replica ~cfg:fast_cfg ~id:i ~port:ports.(i) ~peers ()

let listen_on port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (loopback port);
  Unix.listen fd 8;
  fd

let write_ok client k =
  match Tcp.call_op client (Counter.Add k) ~timeout_s:3.0 with
  | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
  | None -> Alcotest.fail "write timed out"

let test_mute_peer () =
  (* Replica 2 is a listener that never accepts or answers: a stopped
     process. The dials to it must not stall the live replicas' loops. *)
  within "mute peer" 5.0 (fun () ->
      let r = reserve_ports () in
      let ports = r.ports in
      let mute = listen_on ports.(2) in
      claimed r 2;
      Fun.protect
        ~finally:(fun () -> Unix.close mute)
        (fun () ->
          with_replicas r (start_counter ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1 ]
            (fun _ ->
              let client =
                Tcp.start_client ~id:1
                  ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
                  ()
              in
              Fun.protect ~finally:(fun () -> Tcp.stop_client client) (fun () -> write_ok client 1))))

let test_idle_connection () =
  (* A raw connection to replica 0 that never sends a byte must not keep
     the replica from accepting and serving a later client. *)
  within "idle connection" 5.0 (fun () ->
      let r = reserve_ports () in
      let ports = r.ports in
      with_replicas r (start_counter ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
        (fun _ ->
          let idle = Unix.socket PF_INET SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close idle)
            (fun () ->
              Unix.connect idle (loopback ports.(0));
              let client =
                Tcp.start_client ~id:1
                  ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
                  ()
              in
              Fun.protect ~finally:(fun () -> Tcp.stop_client client) (fun () -> write_ok client 1))))

module Kv = Grid_services.Kv_store
module Tcp_kv = Grid_net.Tcp_node.Make (Kv)

let metric registry name =
  let prefix = name ^ " " in
  Grid_obs.Metrics.expose registry
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Some (float_of_string (String.sub line (String.length prefix)
                                    (String.length line - String.length prefix)))
         else None)
  |> Option.value ~default:nan

let test_unread_peer_bounded () =
  (* Replica 2 completes the hello and never reads again. The leader's
     queue toward it must stay under the bound, dropping what does not
     fit, while the cluster keeps serving 64 KiB writes. *)
  let r = reserve_ports () in
  let ports = r.ports in
  let stuck = listen_on ports.(2) in
  claimed r 2;
  Unix.setsockopt_int stuck SO_RCVBUF 4096;
  let stop = Atomic.make false and held = ref [] in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ stuck ] [] [] 0.02 with
          | [], _, _ -> ()
          | _ ->
            let fd, _ = Unix.accept stuck in
            held := fd :: !held;
            (match Framing.read_hello fd with
            | Stdlib.Ok _ ->
              Framing.write_hello fd ~node_id:2 ~max_version:Wire_codec.latest_version
            | Stdlib.Error _ -> ())
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      List.iter Unix.close (stuck :: !held))
    (fun () ->
      let start i =
        let peers = List.filter_map (fun j -> if j = i then None else Some (j, loopback ports.(j))) [ 0; 1; 2 ] in
        Tcp_kv.start_replica ~cfg:fast_cfg ~id:i ~port:ports.(i) ~peers ()
      in
      with_replicas r start Tcp_kv.replica_is_leader Tcp_kv.stop_replica [ 0; 1 ] (fun hs ->
          let leader = List.find Tcp_kv.replica_is_leader hs in
          let registry = Tcp_kv.replica_metrics leader in
          let client =
            Tcp_kv.start_client ~id:1
              ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
              ()
          in
          Fun.protect
            ~finally:(fun () -> Tcp_kv.stop_client client)
            (fun () ->
              let value = String.make 65536 'v' in
              let k = ref 0 in
              while metric registry "grid_net_send_dropped_total" = 0.0 && !k < 400 do
                incr k;
                (match
                   Tcp_kv.call_op client (Kv.Put { key = Printf.sprintf "k%d" !k; value })
                     ~timeout_s:3.0
                 with
                | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
                | None -> Alcotest.failf "write %d timed out" !k);
                let queued = metric registry "grid_net_send_queue_max_bytes" in
                if queued > float_of_int Grid_net.Tcp_node.send_queue_bound then
                  Alcotest.failf "queue at %.0f bytes, over the bound" queued
              done;
              Alcotest.(check bool) "frames to the stuck peer were dropped" true
                (metric registry "grid_net_send_dropped_total" > 0.0);
              match Tcp_kv.call_op client (Kv.Get "k1") ~timeout_s:3.0 with
              | Some reply -> Alcotest.(check bool) "read ok" true (reply.status = Ok)
              | None -> Alcotest.fail "read after the drops timed out")))

let threads () = Array.length (Sys.readdir "/proc/self/task")

let test_one_thread_per_client () =
  (* Each client session is one loop thread: no reader thread per
     connection, on either end. *)
  if Sys.file_exists "/proc/self/task" then begin
    let r = reserve_ports () in
    let ports = r.ports in
    with_replicas r (start_counter ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
      (fun _ ->
        let before = threads () in
        let clients =
          List.init 8 (fun id ->
              Tcp.start_client ~id:(id + 1)
                ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
                ())
        in
        Fun.protect
          ~finally:(fun () -> List.iter Tcp.stop_client clients)
          (fun () ->
            List.iter (fun c -> write_ok c 1) clients;
            let added = threads () - before in
            if added > 8 then Alcotest.failf "8 clients added %d threads" added))
  end

(* A replica restarted over its file store loads the recovered image:
   all three replicas commit, all stop, and one comes back alone. With no
   peer to catch up from, it must report the commit point, state and
   ballot it had before the stop. *)
let test_restart_loads_image () =
  let dir = Filename.temp_file "grid_restart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let r = reserve_ports () in
  let ports = r.ports in
  let addr i = Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)) in
  let peers_of i =
    List.filter_map (fun j -> if j = i then None else Some (j, addr j)) [ 0; 1; 2 ]
  in
  let cfg =
    Config.make ~n:3 ~hb_period_ms:10.0 ~suspicion_ms:60.0 ~stability_ms:20.0
      ~client_retry_ms:150.0 ~accept_retry_ms:50.0 ()
  in
  let start i =
    let storage, recovered, _ =
      Grid_paxos.Storage.file ~path:(Filename.concat dir ("r" ^ string_of_int i))
    in
    Tcp.start_replica ~cfg ~id:i ~port:ports.(i) ~peers:(peers_of i) ~storage
      ?recovered ()
  in
  let ballot_round i =
    let _, body = http_get ports.(i) "/health" in
    let key = {|"ballot":{"round":|} in
    let rec find j =
      if j + String.length key > String.length body then
        Alcotest.failf "no ballot in /health: %s" body
      else if String.sub body j (String.length key) = key then j + String.length key
      else find (j + 1)
    in
    Scanf.sscanf (String.sub body (find 0) 12) "%d" Fun.id
  in
  let wait what cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
      Thread.delay 0.02
    done
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let replicas = Array.of_list (start_replicas r start Tcp.stop_replica [ 0; 1; 2 ]) in
      let before =
        Fun.protect
          ~finally:(fun () -> Array.iter Tcp.stop_replica replicas)
          (fun () ->
            wait "leader" (fun () -> Array.exists Tcp.replica_is_leader replicas);
            let client =
              Tcp.start_client ~id:1
                ~replicas:(List.map (fun i -> (i, addr i)) [ 0; 1; 2 ])
                ()
            in
            Fun.protect
              ~finally:(fun () -> Tcp.stop_client client)
              (fun () ->
                for k = 1 to 5 do
                  match Tcp.call_op client (Counter.Add k) ~timeout_s:5.0 with
                  | Some reply -> Alcotest.(check bool) "write ok" true (reply.status = Ok)
                  | None -> Alcotest.failf "write %d timed out" k
                done);
            wait "replicas converge" (fun () ->
                Array.for_all
                  (fun r -> Tcp.replica_commit_point r = 5 && Tcp.replica_state r = 15)
                  replicas);
            Array.init 3 (fun i ->
                (Tcp.replica_commit_point replicas.(i), Tcp.replica_state replicas.(i),
                 ballot_round i)))
      in
      let i = 1 in
      let cp, state, round = before.(i) in
      let r = start i in
      Fun.protect
        ~finally:(fun () -> Tcp.stop_replica r)
        (fun () ->
          Alcotest.(check int) "commit point survives the restart" cp
            (Tcp.replica_commit_point r);
          Alcotest.(check int) "state survives the restart" state (Tcp.replica_state r);
          Alcotest.(check bool) "ballot round does not go back" true
            (ballot_round i >= round)))

(* ------------------------------------------------------------------ *)
(* Node lifecycle: a stopped node gives back every descriptor it opened,
   and its handle fails fast instead of waiting on a loop that is gone. *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_stop_releases_fds () =
  (* Each node's wake pipe must close with it: a process that churns
     nodes would otherwise grow its fd table without bound. *)
  if Sys.file_exists "/proc/self/fd" then begin
    let before = open_fds () in
    let r = reserve_ports () in
    let ports = r.ports in
    with_replicas r (start_counter ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
      (fun _ ->
        let clients =
          List.init 8 (fun id ->
              Tcp.start_client ~id:(id + 1)
                ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
                ())
        in
        Fun.protect
          ~finally:(fun () -> List.iter Tcp.stop_client clients)
          (fun () -> List.iter (fun c -> write_ok c 1) clients));
    Alcotest.(check int) "open fds after 3 replicas and 8 clients stop" before (open_fds ());
    (* A start that fails to bind leaves nothing open either. *)
    let port = free_port () in
    let busy = listen_on port in
    Fun.protect
      ~finally:(fun () -> Unix.close busy)
      (fun () ->
        let before = open_fds () in
        (match Tcp.start_replica ~cfg:fast_cfg ~id:0 ~port ~peers:[] () with
        | r ->
          Tcp.stop_replica r;
          Alcotest.fail "a replica bound a port in use"
        | exception Unix.Unix_error (EADDRINUSE, _, _) -> ());
        Alcotest.(check int) "open fds after a failed start" before (open_fds ()))
  end

let test_stopped_client_fails_fast () =
  (* The next file opened after a stop may take the freed pipe's fd
     numbers: a call on the stopped handle must not write its wake byte
     there, and must not wait out its timeout. *)
  let r = reserve_ports () in
  let ports = r.ports in
  with_replicas r (start_counter ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
    (fun _ ->
      let client =
        Tcp.start_client ~id:1
          ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ])
          ()
      in
      write_ok client 1;
      Tcp.stop_client client;
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          Unix.set_nonblock r;
          let t0 = Unix.gettimeofday () in
          Alcotest.(check bool) "no reply from a stopped client" true
            (Tcp.call_op client (Counter.Add 2) ~timeout_s:5.0 = None);
          Alcotest.(check bool) "the call returns at once" true
            (Unix.gettimeofday () -. t0 < 1.0);
          match Unix.read r (Bytes.create 8) 0 8 with
          | n -> Alcotest.failf "%d stray bytes in a reused fd" n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()))

let test_stopped_replica_fails_fast () =
  within "accessor on a stopped replica" 5.0 (fun () ->
      let port = free_port () in
      let r = Tcp.start_replica ~cfg:fast_cfg ~id:0 ~port ~peers:[] () in
      (* An admin request whose line is still arriving at the stop: the
         loop answers it on its way out, before it closes the socket. *)
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (loopback port);
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          send "GET /health";
          Thread.delay 0.1;
          Tcp.stop_replica r;
          (match Tcp.replica_is_leader r with
          | _ -> Alcotest.fail "replica_is_leader answered after the stop"
          | exception Invalid_argument _ -> ());
          send " HTTP/1.0\r\n\r\n";
          let buf = Bytes.create 64 in
          let n = Unix.read fd buf 0 64 in
          Alcotest.(check bool) "an admin request caught by the stop gets 503" true
            (String.starts_with ~prefix:"HTTP/1.0 503" (Bytes.sub_string buf 0 n))))

(* ------------------------------------------------------------------ *)
(* Admin requests are served by the loop: outside input costs a socket
   and a bounded buffer, never a thread. *)

(* Everything [fd] receives until the peer closes; a peer that resets
   after its answer counts as closed too. *)
let read_to_close fd =
  Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Alcotest.fail "the admin socket was not closed"
  in
  go ();
  Buffer.contents buf

let occurrences haystack needle =
  let k = String.length needle in
  let rec count i acc =
    if i + k > String.length haystack then acc
    else count (i + 1) (if String.sub haystack i k = needle then acc + 1 else acc)
  in
  count 0 0

(* A client session of the cluster on [ports], for the span of [f]. *)
let with_client ports f =
  let client =
    Tcp.start_client ~id:1 ~replicas:(List.map (fun i -> (i, loopback ports.(i))) [ 0; 1; 2 ]) ()
  in
  Fun.protect ~finally:(fun () -> Tcp.stop_client client) (fun () -> f client)

(* A loop that an exception ends shuts down as a stop does: its node
   refuses work within a second instead of leaving every later caller
   waiting, and stopping it releases its descriptors. *)
let test_dead_loop_fails_fast () =
  if Sys.file_exists "/proc/self/fd" then begin
    let before = open_fds () in
    let r = reserve_ports () in
    let refused what f =
      within what 1.0 (fun () ->
          let rec go () =
            match f () with
            | _ ->
              Thread.delay 0.01;
              go ()
            | exception Invalid_argument _ -> ()
          in
          go ())
    in
    let raising () = failwith "a handler bug" in
    with_replicas r (start_counter r.ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
      (fun hs ->
        with_client r.ports (fun client ->
            write_ok client 1;
            let h = List.hd hs in
            Grid_net.Transport.inject (Tcp.replica_transport h) raising;
            Grid_net.Transport.inject (Tcp.client_transport client) raising;
            refused "replica_is_leader on a dead loop" (fun () -> Tcp.replica_is_leader h);
            refused "client_peer_versions on a dead loop" (fun () ->
                Tcp.client_peer_versions client);
            let t0 = Unix.gettimeofday () in
            Alcotest.(check bool) "call_op on a dead loop is None" true
              (Tcp.call_op client (Counter.Add 1) ~timeout_s:5.0 = None);
            Alcotest.(check bool) "at once" true (Unix.gettimeofday () -. t0 < 0.5)));
    Alcotest.(check int) "open fds after the stops" before (open_fds ())
  end

(* An exception in a [run_on_loop] thunk goes back to its caller, and
   the loop that ran it serves on. *)
let test_run_on_loop_raises () =
  let r = reserve_ports () in
  with_replicas r (start_counter r.ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
    (fun hs ->
      let h = List.hd hs in
      let node = Tcp.replica_transport h in
      within "run_on_loop with a raising thunk" 1.0 (fun () ->
          match Grid_net.Transport.run_on_loop node (fun () -> failwith "boom") with
          | () -> Alcotest.fail "run_on_loop returned"
          | exception Failure msg -> Alcotest.(check string) "the thunk's exception" "boom" msg);
      within "replica_is_leader afterwards" 1.0 (fun () -> ignore (Tcp.replica_is_leader h)))

let test_stalled_admin_requests () =
  (* Eight admin requests that stall mid-line must not pin a thread each,
     nor keep the loop from serving admin requests and the protocol;
     stopping the replica answers and closes them. *)
  if Sys.file_exists "/proc/self/task" && Sys.file_exists "/proc/self/fd" then begin
    let fds_before = open_fds () in
    let r = reserve_ports () in
    let stalled = ref [] in
    let stall () =
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      stalled := fd :: !stalled;
      Unix.connect fd (loopback r.ports.(0));
      ignore (Unix.write_substring fd "GET /hea" 0 8)
    in
    let scrape path = ignore (http_get r.ports.(0) path) in
    let answers =
      Fun.protect
        ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) !stalled)
        (fun () ->
          with_replicas r (start_counter r.ports) Tcp.replica_is_leader Tcp.stop_replica
            [ 0; 1; 2 ] (fun _ ->
              with_client r.ports (fun client ->
                  write_ok client 1;
                  let before = threads () in
                  for _ = 1 to 8 do stall () done;
                  Thread.delay 0.2;
                  let status, _ = http_get r.ports.(0) "/health" in
                  Alcotest.(check bool) "health answers beside stalled requests" true
                    (contains status "200");
                  write_ok client 2;
                  let added = threads () - before in
                  if added > 0 then
                    Alcotest.failf "8 stalled admin requests added %d threads" added;
                  for _ = 1 to 20 do
                    scrape "/metrics";
                    scrape "/health"
                  done;
                  let added = threads () - before in
                  if added > 0 then Alcotest.failf "20 scrapes added %d threads" added));
          List.map read_to_close !stalled)
    in
    List.iter
      (fun raw ->
        Alcotest.(check bool) "a stalled request caught by the stop gets 503" true
          (String.starts_with ~prefix:"HTTP/1.0 503" raw))
      answers;
    Alcotest.(check int) "open fds after the stop" fds_before (open_fds ())
  end

let test_long_request_line () =
  (* A request line that never ends is answered once it passes the 4 KiB
     cap, with its truncated path, and its socket closes. *)
  let r = reserve_ports () in
  with_replicas r (start_counter r.ports) Tcp.replica_is_leader Tcp.stop_replica [ 0; 1; 2 ]
    (fun _ ->
      with_client r.ports (fun client ->
          write_ok client 1;
          let fd = Unix.socket PF_INET SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.connect fd (loopback r.ports.(0));
              let req = "GET /" ^ String.make 8192 'x' in
              ignore (Unix.write_substring fd req 0 (String.length req));
              let raw = read_to_close fd in
              Alcotest.(check int) "one response" 1 (occurrences raw "HTTP/1.0");
              Alcotest.(check bool) "the truncated path is not found" true
                (String.starts_with ~prefix:"HTTP/1.0 404" raw));
          write_ok client 2))

let suite =
  [
    ( "net.framing",
      [
        Alcotest.test_case "roundtrip" `Quick test_framing_roundtrip;
        Alcotest.test_case "closed" `Quick test_framing_closed;
        Alcotest.test_case "corruption" `Quick test_framing_corruption;
        Alcotest.test_case "truncated body" `Quick test_framing_truncated_body;
        Alcotest.test_case "msg wire roundtrip (v1+v2)" `Quick test_msg_wire_roundtrip;
        QCheck_alcotest.to_alcotest prop_incremental_reader;
        QCheck_alcotest.to_alcotest prop_disk_reader;
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
        Alcotest.test_case "a mute peer does not stall the dialers" `Slow test_mute_peer;
        Alcotest.test_case "an idle connection does not stall accepts" `Slow
          test_idle_connection;
        Alcotest.test_case "output to a peer that stops reading is bounded" `Slow
          test_unread_peer_bounded;
        Alcotest.test_case "one thread per client session" `Slow test_one_thread_per_client;
        Alcotest.test_case "a restarted replica loads its recovered image" `Slow
          test_restart_loads_image;
        Alcotest.test_case "stopped nodes leave no fd open" `Slow test_stop_releases_fds;
        Alcotest.test_case "a dead loop refuses work at once" `Slow test_dead_loop_fails_fast;
        Alcotest.test_case "run_on_loop carries an exception back" `Slow
          test_run_on_loop_raises;
        Alcotest.test_case "a stopped client's call returns None at once" `Slow
          test_stopped_client_fails_fast;
        Alcotest.test_case "a stopped replica's accessors raise" `Slow
          test_stopped_replica_fails_fast;
        Alcotest.test_case "a stalled admin request pins no thread" `Slow
          test_stalled_admin_requests;
        Alcotest.test_case "an over-long request line is bounded" `Slow
          test_long_request_line;
      ] );
  ]
