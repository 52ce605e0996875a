open Grid_paxos.Types
module Rng = Grid_util.Rng
module Span = Grid_obs.Span
module Metrics = Grid_obs.Metrics
module Wire_codec = Grid_paxos.Wire_codec

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Transport counters, one registry per node. Unlike the simulator's
   metrics these count real socket traffic: dial attempts and failures
   feed the backoff story, sent/received feed throughput sanity checks,
   and the byte counters price the wire format itself (the reason the
   codec is versioned at all). *)
type net_meters = {
  registry : Metrics.t;
  nm_sent : Metrics.counter;
  nm_received : Metrics.counter;
  nm_bytes : Metrics.counter;  (* both directions, frame overhead included *)
  nm_bytes_sent : Metrics.counter;
  nm_bytes_received : Metrics.counter;
  nm_bytes_by_kind : (string, Metrics.counter) Hashtbl.t;
      (* per message kind, both directions *)
  nm_decode_errors : Metrics.counter;
  nm_dials : Metrics.counter;
  nm_dial_failures : Metrics.counter;
  nm_conns : Metrics.gauge;
  nm_backoff : (int, Metrics.gauge) Hashtbl.t;
      (* per-peer current reconnect delay, 0 when healthy *)
  nm_wire_version : (int, Metrics.gauge) Hashtbl.t;
      (* per-peer negotiated protocol version, 0 when disconnected *)
}

let make_meters ~peers () =
  let registry = Metrics.create () in
  let nm_backoff = Hashtbl.create 8 in
  let nm_wire_version = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace nm_backoff p
        (Metrics.gauge registry
           (Printf.sprintf "grid_net_backoff_ms_peer_%d" p)
           ~help:"Current reconnect backoff delay toward this peer (0 = healthy)");
      Hashtbl.replace nm_wire_version p
        (Metrics.gauge registry
           (Printf.sprintf "grid_net_wire_version_peer_%d" p)
           ~help:
             "Wire-protocol version negotiated with this peer (0 = not connected)"))
    peers;
  let nm_bytes_by_kind = Hashtbl.create 16 in
  List.iter
    (fun kind ->
      Hashtbl.replace nm_bytes_by_kind kind
        (Metrics.counter registry
           (Printf.sprintf "grid_net_bytes_total_%s" kind)
           ~help:"On-wire bytes carrying this message kind, both directions"))
    Grid_paxos.Types.all_msg_kinds;
  {
    registry;
    nm_sent =
      Metrics.counter registry "grid_net_messages_sent_total"
        ~help:"Protocol messages written to peer sockets";
    nm_received =
      Metrics.counter registry "grid_net_messages_received_total"
        ~help:"Protocol messages read off peer sockets";
    nm_bytes =
      Metrics.counter registry "grid_net_bytes_total"
        ~help:"On-wire bytes, both directions, frame overhead included";
    nm_bytes_sent =
      Metrics.counter registry "grid_net_bytes_sent_total"
        ~help:"On-wire bytes written to peer sockets";
    nm_bytes_received =
      Metrics.counter registry "grid_net_bytes_received_total"
        ~help:"On-wire bytes read off peer sockets";
    nm_bytes_by_kind;
    nm_decode_errors =
      Metrics.counter registry "grid_net_decode_errors_total"
        ~help:"Frames dropped as corrupt or undecodable (connection closed)";
    nm_dials =
      Metrics.counter registry "grid_net_dials_total"
        ~help:"Outbound connection attempts";
    nm_dial_failures =
      Metrics.counter registry "grid_net_dial_failures_total"
        ~help:"Failed dials (peer enters reconnect backoff)";
    nm_conns =
      Metrics.gauge registry "grid_net_connections"
        ~help:"Currently established peer connections";
    nm_backoff;
    nm_wire_version;
  }

let set_backoff_gauge meters peer ms =
  match Hashtbl.find_opt meters.nm_backoff peer with
  | Some g -> Metrics.set g ms
  | None -> ()

let set_version_gauge meters peer v =
  match Hashtbl.find_opt meters.nm_wire_version peer with
  | Some g -> Metrics.set g (float_of_int v)
  | None -> ()

let count_bytes meters msg n =
  Metrics.inc ~by:n meters.nm_bytes;
  match Hashtbl.find_opt meters.nm_bytes_by_kind (msg_kind msg) with
  | Some c -> Metrics.inc ~by:n c
  | None -> ()

(* Release the per-peer gauges when the node stops: their names embed
   peer ids, so a node restarted against a different peer set must not
   inherit stale series from the previous incarnation. *)
let release_meters meters =
  Hashtbl.iter
    (fun p _ ->
      Metrics.unregister meters.registry
        (Printf.sprintf "grid_net_backoff_ms_peer_%d" p))
    meters.nm_backoff;
  Hashtbl.reset meters.nm_backoff;
  Hashtbl.iter
    (fun p _ ->
      Metrics.unregister meters.registry
        (Printf.sprintf "grid_net_wire_version_peer_%d" p))
    meters.nm_wire_version;
  Hashtbl.reset meters.nm_wire_version

(* Reconnect backoff: a peer that refused a dial is not redialed before a
   delay that doubles per consecutive failure, from [backoff_base_ms] up
   to [backoff_cap_ms], with jitter so a restarted replica is not hit by
   every peer in the same instant. Without this, a dead peer costs one
   connect syscall per outgoing message (heartbeats: every few ms). The
   constants are per-node state, settable at [start] time. *)
let default_backoff_base_ms = 20.0
let default_backoff_cap_ms = 2000.0

(* ------------------------------------------------------------------ *)
(* Per-connection codec: fixed at handshake time by version negotiation
   and used for every frame on that socket in both directions. *)

module type CONN_CODEC = sig
  val write_msg : Unix.file_descr -> msg -> int
  val read_msg : Unix.file_descr -> (msg * int, Framing.read_error) result
end

module Codec_v1 = Framing.Codec (Wire_codec.V1)
module Codec_v2 = Framing.Codec (Wire_codec.V2)

let conn_codec version : (module CONN_CODEC) =
  match version with
  | 1 -> (module Codec_v1)
  | 2 -> (module Codec_v2)
  | v -> invalid_arg (Printf.sprintf "Tcp_node.conn_codec: version %d" v)

type conn = { fd : Unix.file_descr; version : int; codec : (module CONN_CODEC) }

(* ------------------------------------------------------------------ *)
(* Generic event loop: an inbox fed by reader threads, a timer queue, and
   a self-pipe so the main loop can sleep in [select] yet wake on either
   a message or a due timer. *)

(* Timers ordered by (due time, arming sequence number): timers due at
   the same instant fire first-armed first. *)
module Timer_heap = Grid_util.Heap.Make (struct
  type t = float * int * timer

  let compare (d1, s1, _) (d2, s2, _) =
    match Float.compare d1 d2 with 0 -> Int.compare s1 s2 | c -> c
end)

type core = {
  node_id : int;
  max_wire_version : int;  (* highest version advertised in hellos *)
  mutex : Mutex.t;
  inbox : (int * msg) Queue.t;
  thunks : (unit -> unit) Queue.t;  (* injected work, run on the loop thread *)
  timers : Timer_heap.t;
  mutable timer_seq : int;
  mutable conns : (int * conn) list;
  mutable stop : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  addresses : (int * Unix.sockaddr) list;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  (* peer -> (earliest next dial in ms, current backoff delay in ms) *)
  backoff : (int, float * float) Hashtbl.t;
  rng : Rng.t;  (* jitter; guarded by [mutex] *)
  obs : Span.Recorder.t;  (* spans timed on the wall clock (ms) *)
  actor : string;
  meters : net_meters;
}

let create_core ?(obs = Span.Recorder.disabled)
    ?(backoff_base_ms = default_backoff_base_ms)
    ?(backoff_cap_ms = default_backoff_cap_ms)
    ?(max_wire_version = Wire_codec.latest_version) ~node_id ~actor ~addresses
    () =
  if max_wire_version < Wire_codec.min_version then
    invalid_arg "Tcp_node.create_core: max_wire_version below min_version";
  (* A write to a peer that just closed must surface as the EPIPE every
     send path already handles, not as a signal that kills the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  {
    node_id;
    max_wire_version;
    mutex = Mutex.create ();
    inbox = Queue.create ();
    thunks = Queue.create ();
    timers = Timer_heap.create ();
    timer_seq = 0;
    conns = [];
    stop = false;
    pipe_r;
    pipe_w;
    addresses;
    backoff_base_ms;
    backoff_cap_ms;
    backoff = Hashtbl.create 8;
    rng = Rng.of_int (0x7cb1 + node_id);
    obs;
    actor;
    meters = make_meters ~peers:(List.map fst addresses) ();
  }

let wake core = try ignore (Unix.write_substring core.pipe_w "x" 0 1) with _ -> ()

let with_lock core f =
  Mutex.lock core.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock core.mutex) f

let enqueue_msg core src msg =
  Metrics.inc core.meters.nm_received;
  with_lock core (fun () -> Queue.add (src, msg) core.inbox);
  wake core

let inject core thunk =
  with_lock core (fun () -> Queue.add thunk core.thunks);
  wake core

(* Run [f] on the node's loop thread and wait for its result: engine
   access is confined to that thread, so introspection (admin endpoint,
   test accessors) synchronizes through the inbox. *)
let run_on_loop core f =
  let result = ref None in
  let m = Mutex.create () and c = Condition.create () in
  inject core (fun () ->
      Mutex.lock m;
      result := Some (f ());
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !result = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !result

let register_conn core peer conn =
  with_lock core (fun () ->
      core.conns <- (peer, conn) :: List.remove_assoc peer core.conns;
      Metrics.set core.meters.nm_conns (float_of_int (List.length core.conns)));
  set_version_gauge core.meters peer conn.version

let drop_conn core peer =
  with_lock core (fun () ->
      core.conns <- List.remove_assoc peer core.conns;
      Metrics.set core.meters.nm_conns (float_of_int (List.length core.conns)));
  set_version_gauge core.meters peer 0

(* The negotiated version per live peer connection, for /health. *)
let peer_versions core =
  with_lock core (fun () -> List.map (fun (p, c) -> (p, c.version)) core.conns)

let note_corrupt core ~peer err =
  Metrics.inc core.meters.nm_decode_errors;
  if Span.Recorder.enabled core.obs then
    Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor
      (Format.asprintf "drop conn to %d: %a" peer Framing.pp_read_error err)

(* Reader thread: handshake already done; pump messages into the inbox.
   [Eof] is a peer going away (normal churn); [Corrupt] is an
   unresynchronizable stream — count it, note it, and drop the
   connection. Either way the socket is closed and the next send
   redials. *)
let reader_thread core peer (conn : conn) =
  let module C = (val conn.codec : CONN_CODEC) in
  let rec pump () =
    if core.stop then ()
    else
      match C.read_msg conn.fd with
      | Ok (msg, bytes) ->
        Metrics.inc ~by:bytes core.meters.nm_bytes_received;
        count_bytes core.meters msg bytes;
        enqueue_msg core peer msg;
        pump ()
      | Error Eof -> ()
      | Error (Corrupt _ as err) -> note_corrupt core ~peer err
      | exception Unix.Unix_error _ -> ()
  in
  pump ();
  drop_conn core peer;
  try Unix.close conn.fd with _ -> ()

(* Get (or dial) the connection to [peer]; None if unreachable or still
   backing off after a failed dial. Dialing performs the version
   handshake synchronously: send our hello, read the listener's hello
   back, settle on min(local, peer). *)
exception Handshake_failed of string

let connection core peer =
  match with_lock core (fun () -> List.assoc_opt peer core.conns) with
  | Some conn -> Some conn
  | None -> (
    match List.assoc_opt peer core.addresses with
    | None -> None
    | Some addr ->
      let now = now_ms () in
      let backing_off =
        with_lock core (fun () ->
            match Hashtbl.find_opt core.backoff peer with
            | Some (not_before, _) -> now < not_before
            | None -> false)
      in
      if backing_off then None
      else (
        Metrics.inc core.meters.nm_dials;
        try
          let fd = Unix.socket PF_INET SOCK_STREAM 0 in
          let conn =
            try
              Unix.setsockopt fd TCP_NODELAY true;
              Unix.connect fd addr;
              Framing.write_hello fd ~node_id:core.node_id
                ~max_version:core.max_wire_version;
              let _peer_id, peer_max =
                match Framing.read_hello fd with
                | Ok hello -> hello
                | Error e ->
                  raise
                    (Handshake_failed
                       (Format.asprintf "%a" Framing.pp_read_error e))
              in
              let version =
                match
                  Wire_codec.negotiate ~local_max:core.max_wire_version
                    ~peer_max
                with
                | Some v -> v
                | None ->
                  raise
                    (Handshake_failed
                       (Printf.sprintf "no common wire version (peer max %d)"
                          peer_max))
              in
              { fd; version; codec = conn_codec version }
            with e ->
              (try Unix.close fd with _ -> ());
              raise e
          in
          with_lock core (fun () -> Hashtbl.remove core.backoff peer);
          set_backoff_gauge core.meters peer 0.0;
          register_conn core peer conn;
          ignore (Thread.create (fun () -> reader_thread core peer conn) ());
          Some conn
        with
        | Unix.Unix_error _ | Framing.Closed | Handshake_failed _ ->
          Metrics.inc core.meters.nm_dial_failures;
          with_lock core (fun () ->
              let prev =
                match Hashtbl.find_opt core.backoff peer with
                | Some (_, d) -> d
                | None -> 0.0
              in
              let next =
                Float.min core.backoff_cap_ms
                  (Float.max core.backoff_base_ms (prev *. 2.0))
              in
              (* Jitter in [next/2, next): consecutive retries stay spread
                 out even when every peer noticed the death together. *)
              let wait = next *. (0.5 +. Rng.float core.rng 0.5) in
              Hashtbl.replace core.backoff peer (now +. wait, next));
          (match with_lock core (fun () -> Hashtbl.find_opt core.backoff peer) with
          | Some (_, d) -> set_backoff_gauge core.meters peer d
          | None -> ());
          None))

let send_msg core ~dst msg =
  if Span.Recorder.enabled core.obs then
    Span.Recorder.msg core.obs ~time:(now_ms ()) ~actor:core.actor
      ~kind:(msg_kind msg) ~dst;
  match connection core dst with
  | None -> ()  (* unreachable peer: retransmission recovers *)
  | Some conn -> (
    let module C = (val conn.codec : CONN_CODEC) in
    try
      let bytes = C.write_msg conn.fd msg in
      Metrics.inc core.meters.nm_sent;
      Metrics.inc ~by:bytes core.meters.nm_bytes_sent;
      count_bytes core.meters msg bytes
    with Framing.Closed | Unix.Unix_error _ -> drop_conn core dst)

let arm_timer core ~due timer =
  with_lock core (fun () ->
      core.timer_seq <- core.timer_seq + 1;
      Timer_heap.add core.timers (due, core.timer_seq, timer))

let run_actions core actions =
  List.iter
    (function
      | Send { dst; msg } -> send_msg core ~dst msg
      | After { delay; timer } -> arm_timer core ~due:(now_ms () +. delay) timer
      | Note s ->
        if Span.Recorder.enabled core.obs then
          Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor s)
    actions

(* The main loop: [handle] processes one input and returns actions. *)
let event_loop core handle =
  let drain_pipe () =
    let buf = Bytes.create 64 in
    try
      while Unix.read core.pipe_r buf 0 64 > 0 do
        ()
      done
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  while not core.stop do
    (* Pull work under the lock. *)
    let inputs, thunks, timeout =
      with_lock core (fun () ->
          let msgs = Queue.fold (fun acc x -> x :: acc) [] core.inbox in
          Queue.clear core.inbox;
          let thunks = Queue.fold (fun acc x -> x :: acc) [] core.thunks in
          Queue.clear core.thunks;
          let now = now_ms () in
          let rec pop_due acc =
            match Timer_heap.min_elt core.timers with
            | Some (d, _, timer) when d <= now ->
              ignore (Timer_heap.pop_min core.timers);
              pop_due (Timer timer :: acc)
            | next -> (List.rev acc, next)
          in
          let due, next = pop_due [] in
          let timeout =
            match next with
            | None -> 0.1 (* s *)
            | Some (d, _, _) -> Float.max 0.0 ((d -. now) /. 1000.0)
          in
          ( List.rev_map (fun (src, msg) -> Receive { src; msg }) msgs @ due,
            List.rev thunks,
            timeout ))
    in
    List.iter (fun thunk -> thunk ()) thunks;
    List.iter (fun input -> run_actions core (handle ~now:(now_ms ()) input)) inputs;
    if inputs = [] && thunks = [] then begin
      (match Unix.select [ core.pipe_r ] [] [] timeout with
      | [ _ ], _, _ -> drain_pipe ()
      | _ -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> ())
    end
  done

let shutdown core =
  core.stop <- true;
  wake core;
  with_lock core (fun () ->
      List.iter
        (fun (_, c) -> try Unix.shutdown c.fd SHUTDOWN_ALL with _ -> ())
        core.conns)

(* ------------------------------------------------------------------ *)
(* Admin endpoint: a minimal HTTP/1.0 responder sharing the replica's
   accept loop. A protocol connection opens with a hello frame whose
   first bytes are a little-endian length (tiny, so never printable
   ASCII); an HTTP request opens with a method name — peeking four bytes
   disambiguates without consuming either. No HTTP library: one request
   line in, one Content-Length response out, connection closed. *)

let sniff_http fd =
  let methods = [ "GET "; "HEAD"; "POST" ] in
  let buf = Bytes.create 4 in
  let rec peek attempts =
    match Unix.recv fd buf 0 4 [ Unix.MSG_PEEK ] with
    | 0 -> false
    | n ->
      (* Classify on whatever prefix has arrived: the moment the peeked
         bytes diverge from every method we serve this is a protocol
         peer (its hello starts with a tiny length byte, never a
         printable method prefix) — don't stall it through the retry
         budget, and never fall back to judging the first byte alone. A
         true prefix is a dribbling HTTP client: retry, and if the wire
         stays short past the budget, trust the prefix. *)
      let s = Bytes.sub_string buf 0 n in
      if not (List.exists (fun m -> String.sub m 0 n = s) methods) then false
      else if n = 4 then true
      else if attempts > 0 then begin
        Thread.delay 0.002;
        peek (attempts - 1)
      end
      else true
  in
  try peek 25 with Unix.Unix_error _ -> false

(* Read up to the end of the request line; headers and body (if any) are
   irrelevant to the admin surface and left unread. *)
let read_request_line fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let rec go () =
    if Buffer.length buf > 4096 then Buffer.contents buf
    else if Unix.read fd b 0 1 <> 1 then Buffer.contents buf
    else
      match Bytes.get b 0 with
      | '\n' -> Buffer.contents buf
      | '\r' -> go ()
      | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* One thread per admin request: parse the path, ask the node's [routes]
   callback for a body, answer, close. *)
let http_thread routes fd =
  (try
     let line = read_request_line fd in
     let path =
       match String.split_on_char ' ' line with
       | _meth :: path :: _ -> path
       | _ -> "/"
     in
     let response =
       match routes path with
       | Some (content_type, body) ->
         http_response ~status:"200 OK" ~content_type body
       | None ->
         http_response ~status:"404 Not Found" ~content_type:"text/plain"
           "not found\n"
     in
     ignore (Unix.write_substring fd response 0 (String.length response))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with _ -> ()

(* ------------------------------------------------------------------ *)

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)
  module Client = Grid_paxos.Client

  type replica_handle = {
    r_core : core;
    replica : R.t;
    r_watchdog : Grid_obs.Watchdog.t;
    r_loop : Thread.t;
    r_accept : Thread.t;
    listener : Unix.file_descr;
  }

  (* Inbound handshake: read the dialer's hello, answer with ours, keep
     the connection iff the version ranges overlap. A corrupt hello (or
     a version gap) closes the socket; the dialer sees EOF and backs
     off. *)
  let acceptor ?routes core listener =
    try
      while not core.stop do
        let fd, _ = Unix.accept listener in
        Unix.setsockopt fd TCP_NODELAY true;
        match routes with
        | Some routes when sniff_http fd ->
          ignore (Thread.create (fun () -> http_thread routes fd) ())
        | _ -> (
          match Framing.read_hello fd with
          | Ok (peer, peer_max) -> (
            match
              Wire_codec.negotiate ~local_max:core.max_wire_version ~peer_max
            with
            | Some version -> (
              match
                Framing.write_hello fd ~node_id:core.node_id
                  ~max_version:core.max_wire_version
              with
              | () ->
                let conn = { fd; version; codec = conn_codec version } in
                register_conn core peer conn;
                ignore (Thread.create (fun () -> reader_thread core peer conn) ())
              | exception (Framing.Closed | Unix.Unix_error _) -> (
                try Unix.close fd with _ -> ()))
            | None ->
              note_corrupt core ~peer
                (Framing.Corrupt
                   { pos = 0;
                     msg = Printf.sprintf "no common wire version (peer max %d)" peer_max
                   });
              (try Unix.close fd with _ -> ()))
          | Error Eof -> ( try Unix.close fd with _ -> ())
          | Error (Corrupt _ as err) ->
            note_corrupt core ~peer:(-1) err;
            (try Unix.close fd with _ -> ()))
      done
    with Unix.Unix_error _ -> ()

  let start_replica ~cfg ~id ~port ~peers ?storage ?obs ?(flight_capacity = 2048)
      ?backoff_base_ms ?backoff_cap_ms ?max_wire_version () =
    let actor = "r" ^ string_of_int id in
    (* Flight recorder: unless the caller supplies a recorder, keep a
       bounded always-on one — the last [flight_capacity] events are a
       crash-scene record dumped by the admin endpoint, at ring-buffer
       cost. *)
    let obs =
      match obs with
      | Some o -> o
      | None -> Span.Recorder.create ~capacity:flight_capacity ~enabled:true ()
    in
    let core =
      create_core ~obs ?backoff_base_ms ?backoff_cap_ms ?max_wire_version
        ~node_id:id ~actor ~addresses:peers ()
    in
    (* Online invariant checks: counted in this node's registry and noted
       into the flight recorder, so /metrics and /flightrec both carry the
       violation story. *)
    let watchdog =
      Grid_obs.Watchdog.create
        ~fail_stop:cfg.Grid_paxos.Config.watchdog_fail_stop
        ~metrics:core.meters.registry
        ~on_violation:(fun ~check ~detail ->
          Span.Recorder.note obs ~time:(now_ms ()) ~actor
            (Printf.sprintf "watchdog %s: %s" check detail))
        ()
    in
    let replica = R.create ~cfg ~id ?storage ~obs ~actor ~watchdog () in
    let listener = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt listener SO_REUSEADDR true;
    Unix.bind listener (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listener 64;
    (* Engine access is confined to the loop thread; bootstrap through an
       injected thunk. *)
    inject core (fun () -> run_actions core (R.bootstrap replica));
    (* Resharding visibility (DESIGN.md §17): gauges track the replica's
       partition-map epoch and migration progress; refreshed after every
       handled input (four stores, no lookup). *)
    let reshard_epoch_g =
      Metrics.gauge core.meters.registry "grid_reshard_epoch"
        ~help:"Partition-map epoch this replica has committed"
    in
    let reshard_migrating_g =
      Metrics.gauge core.meters.registry "grid_reshard_migrating"
        ~help:"1 while a split/merge holds this replica frozen or installing"
    in
    let reshard_moved_g =
      Metrics.gauge core.meters.registry "grid_reshard_moved_ranges"
        ~help:"Key ranges handed to another group and not yet received back"
    in
    let reshard_imported_g =
      Metrics.gauge core.meters.registry "grid_reshard_imported_items"
        ~help:"Items adopted from shipped migration snapshots"
    in
    let refresh_reshard () =
      Metrics.set reshard_epoch_g (Float.of_int (R.reshard_epoch replica));
      Metrics.set reshard_migrating_g
        (if R.reshard_phase replica = "idle" then 0.0 else 1.0);
      Metrics.set reshard_moved_g (Float.of_int (R.moved_ranges replica));
      Metrics.set reshard_imported_g (Float.of_int (R.imported_items replica))
    in
    refresh_reshard ();
    let handle ~now input =
      let acts = R.handle replica ~now input in
      refresh_reshard ();
      acts
    in
    let health () =
      let peer_json =
        peer_versions core
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map (fun (p, v) -> Printf.sprintf {|"%d":%d|} p v)
        |> String.concat ","
      in
      run_on_loop core (fun () ->
          let now = now_ms () in
          let b = R.ballot replica in
          let shed_reads, shed_writes = R.stats_shed replica in
          Printf.sprintf
            {|{"node":%d,"role":"%s","ballot":{"round":%d,"holder":%d},"commit_point":%d,"holds_lease":%b,"queue_depth":%d,"reads_inflight":%d,"shed_reads":%d,"shed_writes":%d,"watchdog_violations":%d,"reshard":{"epoch":%d,"phase":"%s","moved_ranges":%d,"imported_items":%d},"wire_version":%d,"peer_wire_versions":{%s}}|}
            id
            (R.role_name replica)
            b.Grid_paxos.Types.Ballot.round b.Grid_paxos.Types.Ballot.holder
            (R.commit_point replica)
            (R.holds_lease replica ~now)
            (R.queue_depth replica) (R.reads_inflight replica) shed_reads
            shed_writes
            (Grid_obs.Watchdog.violations watchdog)
            (R.reshard_epoch replica) (R.reshard_phase replica)
            (R.moved_ranges replica) (R.imported_items replica)
            core.max_wire_version peer_json)
    in
    let routes path =
      match path with
      | "/metrics" ->
        Some ("text/plain; version=0.0.4", Metrics.expose core.meters.registry)
      | "/health" -> Some ("application/json", health () ^ "\n")
      | "/flightrec" ->
        Some
          ( "application/jsonl",
            Span.dump_string
              (run_on_loop core (fun () -> Span.Recorder.events obs)) )
      | _ -> None
    in
    let r_loop = Thread.create (fun () -> event_loop core handle) () in
    let r_accept = Thread.create (fun () -> acceptor ~routes core listener) () in
    { r_core = core; replica; r_watchdog = watchdog; r_loop; r_accept; listener }

  (* Engine introspection must also run on the loop thread. *)
  let on_loop h f = run_on_loop h.r_core f
  let replica_is_leader h = on_loop h (fun () -> R.is_leader h.replica)
  let replica_commit_point h = on_loop h (fun () -> R.commit_point h.replica)
  let replica_state h = on_loop h (fun () -> R.state h.replica)
  let replica_metrics h = h.r_core.meters.registry
  let replica_obs h = h.r_core.obs
  let replica_watchdog h = h.r_watchdog
  let replica_peer_versions h = peer_versions h.r_core

  let stop_replica h =
    shutdown h.r_core;
    (try Unix.shutdown h.listener SHUTDOWN_ALL with _ -> ());
    (try Unix.close h.listener with _ -> ());
    (try Thread.join h.r_loop with _ -> ());
    (try Thread.join h.r_accept with _ -> ());
    release_meters h.r_core.meters

  type client_handle = {
    c_core : core;
    client : Client.t;
    c_loop : Thread.t;
    c_mutex : Mutex.t;
    c_cond : Condition.t;
    c_reply : reply option ref;
    c_submitted : [ `Pending | `Busy | `Sent of Grid_util.Ids.Request_id.t ] ref;
  }

  let start_client ~id ~replicas ?(retry_ms = 200.0) ?obs ?backoff_base_ms
      ?backoff_cap_ms ?max_wire_version () =
    let cid = Grid_util.Ids.Client_id.of_int id in
    let client =
      Client.create ~id:cid ~replicas:(List.map fst replicas) ~retry_ms ?obs ()
    in
    let core =
      create_core ?obs ?backoff_base_ms ?backoff_cap_ms ?max_wire_version
        ~node_id:(client_node cid) ~actor:("c" ^ string_of_int id)
        ~addresses:replicas ()
    in
    let c_mutex = Mutex.create () in
    let c_cond = Condition.create () in
    let c_reply = ref None in
    let handle ~now input =
      let actions, reply = Client.handle client ~now input in
      (match reply with
      | Some r ->
        Mutex.lock c_mutex;
        c_reply := Some r;
        Condition.signal c_cond;
        Mutex.unlock c_mutex
      | None -> ());
      actions
    in
    let c_loop = Thread.create (fun () -> event_loop core handle) () in
    { c_core = core; client; c_loop; c_mutex; c_cond; c_reply;
      c_submitted = ref `Pending }

  (* Internal: the raw rtype/payload request path. Exposed only through
     {!call_op}, which derives both from the service signature — callers
     never build wire payloads by hand. The submit runs on the loop
     thread, which reports its outcome through [c_submitted] while this
     thread polls. *)
  let call h rtype ~payload ~timeout_s =
    Mutex.lock h.c_mutex;
    h.c_reply := None;
    h.c_submitted := `Pending;
    Mutex.unlock h.c_mutex;
    inject h.c_core (fun () ->
        let outcome, actions =
          match Client.submit h.client ~now:(now_ms ()) rtype ~payload with
          | `Sent actions ->
            (`Sent (Option.get (Client.outstanding h.client)).id, actions)
          | `Busy -> (`Busy, [])
        in
        Mutex.lock h.c_mutex;
        h.c_submitted := outcome;
        Mutex.unlock h.c_mutex;
        run_actions h.c_core actions);
    let deadline = Unix.gettimeofday () +. timeout_s in
    Mutex.lock h.c_mutex;
    let rec wait () =
      match (!(h.c_submitted), !(h.c_reply)) with
      | `Busy, _ ->
        (* An earlier call timed out and its request is still
           outstanding: the closed-loop client takes no other until that
           one completes. *)
        Mutex.unlock h.c_mutex;
        None
      (* Only the reply to this call's request: a late reply to an
         earlier, timed-out one may land in [c_reply] too. *)
      | `Sent id, Some r when Grid_util.Ids.Request_id.equal r.req id ->
        Mutex.unlock h.c_mutex;
        Some r
      | _ ->
        if Unix.gettimeofday () > deadline then begin
          Mutex.unlock h.c_mutex;
          None
        end
        else begin
          (* Condition has no timed wait in the stdlib: poll briefly. *)
          Mutex.unlock h.c_mutex;
          Thread.delay 0.002;
          Mutex.lock h.c_mutex;
          wait ()
        end
    in
    wait ()

  (* Typed entrypoint: classification and encoding stay inside the
     library. *)
  let call_op h ?(unreplicated = false) op ~timeout_s =
    let rtype : rtype =
      if unreplicated then Original
      else match S.classify op with `Read -> Read | `Write -> Write
    in
    call h rtype ~payload:(S.encode_op op) ~timeout_s

  let client_metrics h = h.c_core.meters.registry
  let client_peer_versions h = peer_versions h.c_core

  let stop_client h =
    shutdown h.c_core;
    (try Thread.join h.c_loop with _ -> ());
    release_meters h.c_core.meters
end
