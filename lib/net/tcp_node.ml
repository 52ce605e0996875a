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
  nm_send_dropped : Metrics.counter;
  nm_queue_max : Metrics.gauge;
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
    nm_send_dropped =
      Metrics.counter registry "grid_net_send_dropped_total"
        ~help:"Messages dropped because the peer's output queue was full";
    nm_queue_max =
      Metrics.gauge registry "grid_net_send_queue_max_bytes"
        ~help:"Largest output queue of any socket after the last flush";
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
  val encode : msg -> string
  val decode : string -> (msg * int, Framing.read_error) result
end

module Codec_v1 = Framing.Codec (Wire_codec.V1)
module Codec_v2 = Framing.Codec (Wire_codec.V2)

let conn_codec version : (module CONN_CODEC) =
  match version with
  | 1 -> (module Codec_v1)
  | 2 -> (module Codec_v2)
  | v -> invalid_arg (Printf.sprintf "Tcp_node.conn_codec: version %d" v)

(* A socket's handshake state. A dial goes [Connecting] (non-blocking
   connect in flight), then [Awaiting_hello] (our hello queued, the
   listener's not yet in). An accepted socket goes [Sniffing] (HTTP or
   protocol? [deadline] is the sniff budget, infinite until the first
   byte), then [Hello_in] (waiting for the dialer's hello). Both end in
   [Ready] with the negotiated codec. *)
type phase =
  | Connecting
  | Awaiting_hello
  | Sniffing of float
  | Hello_in
  | Ready of { version : int; codec : (module CONN_CODEC) }

type conn = {
  fd : Unix.file_descr;
  mutable peer : int;  (* -1 on an accepted socket until its hello *)
  mutable phase : phase;
  rd : Framing.reader;
  wr : Framing.writer;
  held : msg Queue.t;  (* sent while this dial's handshake is in flight *)
  mutable closed : bool;
}

(* Bytes queued toward one socket past which new frames to it are
   dropped, and messages held per handshake in flight. A peer that
   stops reading costs at most this much memory; retransmission
   recovers the drops, as it does for an unreachable peer. *)
let send_queue_bound = 1 lsl 20
let max_held = 256

(* How long a short HTTP-like prefix may wait for the rest of its
   method name before it is trusted (ms). *)
let sniff_budget_ms = 50.0

(* ------------------------------------------------------------------ *)
(* The event loop: one thread per node [select]s over the wake pipe, the
   listener and every socket, and runs injected thunks, due timers and
   received frames. Only it touches sockets, timers and [to_peer]. *)

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
  mutex : Mutex.t;  (* guards [thunks] *)
  thunks : (unit -> unit) Queue.t;  (* injected work, run on the loop thread *)
  timers : Timer_heap.t;
  mutable timer_seq : int;
  mutable socks : conn list;  (* every open socket *)
  to_peer : (int, conn) Hashtbl.t;  (* the socket a peer's sends go to *)
  mutable stop : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  addresses : (int * Unix.sockaddr) list;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  (* peer -> (earliest next dial in ms, current backoff delay in ms) *)
  backoff : (int, float * float) Hashtbl.t;
  rng : Rng.t;  (* jitter *)
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
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  (* A full pipe already guarantees a wake-up: [wake] never blocks. *)
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  {
    node_id;
    max_wire_version;
    mutex = Mutex.create ();
    thunks = Queue.create ();
    timers = Timer_heap.create ();
    timer_seq = 0;
    socks = [];
    to_peer = Hashtbl.create 8;
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

let inject core thunk =
  with_lock core (fun () -> Queue.add thunk core.thunks);
  wake core

(* Run [f] on the node's loop thread and wait for its result: engine
   and socket state are confined to that thread, so introspection (admin
   endpoint, test accessors) synchronizes through injected thunks. *)
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

let new_conn core fd ~peer phase =
  let c =
    { fd; peer; phase; rd = Framing.reader (); wr = Framing.writer ();
      held = Queue.create (); closed = false }
  in
  core.socks <- c :: core.socks;
  c

let ready_version c = match c.phase with Ready { version; _ } -> Some version | _ -> None
let dialing c = match c.phase with Connecting | Awaiting_hello -> true | _ -> false

(* The negotiated version per peer whose sends have a live connection,
   for /health. *)
let peer_versions core =
  Hashtbl.fold
    (fun p c acc -> match ready_version c with Some v -> (p, v) :: acc | None -> acc)
    core.to_peer []

(* Point [peer]'s sends at [c] (or nowhere) and refresh the gauges. *)
let route core peer c =
  (match c with
  | Some c -> Hashtbl.replace core.to_peer peer c
  | None -> Hashtbl.remove core.to_peer peer);
  Metrics.set core.meters.nm_conns (float_of_int (List.length (peer_versions core)));
  set_version_gauge core.meters peer
    (match Option.bind c ready_version with Some v -> v | None -> 0)

let note_corrupt core ~peer err =
  Metrics.inc core.meters.nm_decode_errors;
  if Span.Recorder.enabled core.obs then
    Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor
      (Format.asprintf "drop conn to %d: %a" peer Framing.pp_read_error err)

(* A socket leaves [socks]. If [peer]'s sends went to it, they move to
   another established socket to that peer (a simultaneous dial leaves
   two), or the next send redials. *)
let forget core c =
  c.closed <- true;
  core.socks <- List.filter (fun c' -> c' != c) core.socks;
  if c.peer >= 0 then
    match Hashtbl.find_opt core.to_peer c.peer with
    | Some c' when c' == c ->
      route core c.peer
        (List.find_opt (fun c' -> c'.peer = c.peer && ready_version c' <> None) core.socks)
    | _ -> ()

let dial_failed core peer =
  Metrics.inc core.meters.nm_dial_failures;
  let prev = match Hashtbl.find_opt core.backoff peer with Some (_, d) -> d | None -> 0.0 in
  let next = Float.min core.backoff_cap_ms (Float.max core.backoff_base_ms (prev *. 2.0)) in
  (* Jitter in [next/2, next): consecutive retries stay spread out even
     when every peer noticed the death together. *)
  let wait = next *. (0.5 +. Rng.float core.rng 0.5) in
  Hashtbl.replace core.backoff peer (now_ms () +. wait, next);
  set_backoff_gauge core.meters peer next

(* Close [c]. A dial that dies before its handshake completes is a failed
   dial and puts the peer on backoff; an established connection going
   away is normal churn and the next send redials at once. *)
let drop core c =
  if not c.closed then begin
    forget core c;
    (try Unix.close c.fd with _ -> ());
    if dialing c then dial_failed core c.peer
  end

(* Start a non-blocking dial to [peer]. Its hello is queued at once and
   leaves when the connect completes. *)
let dial core peer addr =
  Metrics.inc core.meters.nm_dials;
  match Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error _ ->
    dial_failed core peer;
    None
  | fd -> (
    let c = new_conn core fd ~peer Connecting in
    ignore
      (Framing.add_frame c.wr
         (Framing.hello ~node_id:core.node_id ~max_version:core.max_wire_version));
    match
      Unix.set_nonblock fd;
      Unix.setsockopt fd TCP_NODELAY true;
      Unix.connect fd addr
    with
    | () ->
      c.phase <- Awaiting_hello;
      route core peer (Some c);
      Some c
    | exception Unix.Unix_error ((EINPROGRESS | EAGAIN | EINTR), _, _) ->
      route core peer (Some c);
      Some c
    | exception Unix.Unix_error _ ->
      drop core c;
      None)

(* The socket [peer]'s sends go to, dialing if there is none; None if the
   peer is unknown or still backing off after a failed dial. *)
let connection core peer =
  match Hashtbl.find_opt core.to_peer peer with
  | Some c -> Some c
  | None -> (
    match List.assoc_opt peer core.addresses with
    | None -> None
    | Some addr -> (
      match Hashtbl.find_opt core.backoff peer with
      | Some (not_before, _) when now_ms () < not_before -> None
      | _ -> dial core peer addr))

(* Queue [msg] on an established socket, unless its queue is over the
   bound. A lone frame larger than the bound still goes. *)
let enqueue core c codec msg =
  let module C = (val codec : CONN_CODEC) in
  let payload = C.encode msg in
  let queued = Framing.queued c.wr in
  if queued > 0 && queued + String.length payload + 8 > send_queue_bound then
    Metrics.inc core.meters.nm_send_dropped
  else begin
    let bytes = Framing.add_frame c.wr payload in
    Metrics.inc core.meters.nm_sent;
    Metrics.inc ~by:bytes core.meters.nm_bytes_sent;
    count_bytes core.meters msg bytes
  end

let send_msg core ~dst msg =
  if Span.Recorder.enabled core.obs then
    Span.Recorder.msg core.obs ~time:(now_ms ()) ~actor:core.actor
      ~kind:(msg_kind msg) ~dst;
  match connection core dst with
  | None -> ()  (* unreachable peer: retransmission recovers *)
  | Some ({ phase = Ready { codec; _ }; _ } as c) -> enqueue core c codec msg
  | Some c ->
    (* Held until the handshake settles the codec. *)
    if Queue.length c.held >= max_held then Metrics.inc core.meters.nm_send_dropped
    else Queue.add msg c.held

let arm_timer core ~due timer =
  core.timer_seq <- core.timer_seq + 1;
  Timer_heap.add core.timers (due, core.timer_seq, timer)

let run_actions core actions =
  List.iter
    (function
      | Send { dst; msg } -> send_msg core ~dst msg
      | After { delay; timer } -> arm_timer core ~due:(now_ms () +. delay) timer
      | Note s ->
        if Span.Recorder.enabled core.obs then
          Span.Recorder.note core.obs ~time:(now_ms ()) ~actor:core.actor s)
    actions

(* A bad hello or a version gap closes the socket: on the dialing side
   that is a failed dial, on the listening side a decode error, and the
   dialer sees EOF and backs off. *)
let handshake_failed core c err =
  if not (dialing c) then note_corrupt core ~peer:c.peer err;
  drop core c

(* Both ends of a handshake settle on min(local, peer). The dialer then
   encodes what it held with the negotiated codec; the listener answers
   with its own hello. *)
let handshake core c payload =
  match Framing.decode_hello payload with
  | Error err -> handshake_failed core c err
  | Ok (peer, peer_max) -> (
    if not (dialing c) then c.peer <- peer;
    match Wire_codec.negotiate ~local_max:core.max_wire_version ~peer_max with
    | None ->
      handshake_failed core c
        (Framing.Corrupt
           { pos = 0; msg = Printf.sprintf "no common wire version (peer max %d)" peer_max })
    | Some version ->
      let codec = conn_codec version in
      if dialing c then begin
        Hashtbl.remove core.backoff c.peer;
        set_backoff_gauge core.meters c.peer 0.0;
        Queue.iter (enqueue core c codec) c.held;
        Queue.clear c.held
      end
      else
        ignore
          (Framing.add_frame c.wr
             (Framing.hello ~node_id:core.node_id ~max_version:core.max_wire_version));
      c.phase <- Ready { version; codec };
      route core c.peer (Some c))

(* ------------------------------------------------------------------ *)
(* Admin endpoint: a minimal HTTP/1.0 responder sharing the replica's
   listening port. A protocol connection opens with a hello frame whose
   first bytes are a little-endian length (tiny, so never printable
   ASCII); an HTTP request opens with a method name. The loop classifies
   on the first bytes as they arrive and hands an HTTP socket, with the
   bytes it already read, to a short-lived thread. No HTTP library: one
   request line in, one Content-Length response out, connection closed. *)

let http_methods = [ "GET "; "HEAD"; "POST" ]

(* Classify on whatever prefix has arrived: the moment it diverges from
   every method we serve this is a protocol peer — never judge by the
   first byte alone. A true prefix shorter than a method is a dribbling
   HTTP client: wait for more, and once the sniff budget runs out trust
   the prefix. *)
let sniff c =
  let s = Framing.peek c.rd 4 in
  let n = String.length s in
  if n = 0 then `Wait
  else if not (List.exists (fun m -> String.sub m 0 n = s) http_methods) then `Protocol
  else if n = 4 then `Http
  else `Wait

(* Read up to the end of the request line, starting with the bytes the
   loop already read; headers and body (if any) are irrelevant to the
   admin surface and left unread. *)
let read_request_line fd prefix =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let next = ref 0 in
  let read_char () =
    if !next < String.length prefix then begin
      incr next;
      Some prefix.[!next - 1]
    end
    else if Unix.read fd b 0 1 = 1 then Some (Bytes.get b 0)
    else None
  in
  let rec go () =
    if Buffer.length buf > 4096 then Buffer.contents buf
    else
      match read_char () with
      | None | Some '\n' -> Buffer.contents buf
      | Some '\r' -> go ()
      | Some c ->
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
let http_thread routes fd prefix =
  (try
     Unix.clear_nonblock fd;
     let line = read_request_line fd prefix in
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

(* Parse everything [c] has buffered: the sniff, the hello, then protocol
   frames, each handed to [deliver] as it is parsed. *)
let rec process core ~routes ~deliver c =
  if not c.closed then
    match c.phase with
    | Connecting -> ()
    | Sniffing deadline -> (
      match sniff c with
      | `Protocol ->
        c.phase <- Hello_in;
        process core ~routes ~deliver c
      | `Http -> to_http core ~routes c
      | `Wait ->
        if deadline = Float.infinity then
          c.phase <- Sniffing (now_ms () +. sniff_budget_ms))
    | Awaiting_hello | Hello_in -> (
      match Framing.next_frame c.rd with
      | None -> ()
      | Some (Ok payload) ->
        handshake core c payload;
        process core ~routes ~deliver c
      | Some (Error err) -> handshake_failed core c err)
    | Ready { codec; _ } -> (
      let module C = (val codec : CONN_CODEC) in
      match Option.map (fun r -> Result.bind r C.decode) (Framing.next_frame c.rd) with
      | None -> ()
      | Some (Ok (msg, bytes)) ->
        Metrics.inc core.meters.nm_received;
        Metrics.inc ~by:bytes core.meters.nm_bytes_received;
        count_bytes core.meters msg bytes;
        deliver c.peer msg;
        process core ~routes ~deliver c
      | Some (Error err) ->
        (* An unresynchronizable stream: count it, note it, drop the
           connection; the next send redials. *)
        note_corrupt core ~peer:c.peer err;
        drop core c)

and to_http core ~routes c =
  forget core c;
  match routes with
  | Some routes ->
    let prefix = Framing.peek c.rd (Framing.buffered c.rd) in
    ignore (Thread.create (fun () -> http_thread routes c.fd prefix) ())
  | None -> ( try Unix.close c.fd with _ -> ())

(* One read per readable socket per round; EOF inside a frame counts as
   corruption, EOF between frames is a peer going away. *)
let read_conn core ~routes ~deliver c =
  match Framing.read_from c.rd c.fd with
  | 0 ->
    (match (c.phase, Framing.eof_error c.rd) with
    | (Ready _ | Hello_in), (Framing.Corrupt _ as err) -> note_corrupt core ~peer:c.peer err
    | _ -> ());
    drop core c
  | _ -> process core ~routes ~deliver c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop core c

let flush core c =
  match c.phase with
  | Connecting -> ()
  | _ -> (
    if (not c.closed) && Framing.queued c.wr > 0 then
      try Framing.flush c.wr c.fd with Unix.Unix_error _ -> drop core c)

let rec accept_all core listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
    (try
       Unix.set_nonblock fd;
       Unix.setsockopt fd TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    ignore (new_conn core fd ~peer:(-1) (Sniffing Float.infinity));
    accept_all core listener
  | exception Unix.Unix_error _ -> ()

(* The main loop: [handle] processes one input and returns actions. Each
   round runs the injected thunks and due timers, flushes every output
   queue, waits in [select], then reads each readable socket and handles
   its complete frames. All of a round's sends leave in the next round's
   flush, after all of its inputs. *)
let event_loop ?listen core handle =
  let run input = run_actions core (handle ~now:(now_ms ()) input) in
  let deliver src msg = run (Receive { src; msg }) in
  let routes = Option.map snd listen in
  let pipe_buf = Bytes.create 64 in
  let rec drain_pipe () =
    match Unix.read core.pipe_r pipe_buf 0 64 with
    | 0 -> ()
    | _ -> drain_pipe ()
    | exception Unix.Unix_error _ -> ()
  in
  let rec fire_timers () =
    match Timer_heap.min_elt core.timers with
    | Some (d, _, timer) when d <= now_ms () ->
      ignore (Timer_heap.pop_min core.timers);
      run (Timer timer);
      fire_timers ()
    | _ -> ()
  in
  while not core.stop do
    let thunks =
      with_lock core (fun () ->
          let l = List.of_seq (Queue.to_seq core.thunks) in
          Queue.clear core.thunks;
          l)
    in
    List.iter (fun thunk -> thunk ()) thunks;
    fire_timers ();
    List.iter (flush core) core.socks;
    let now = now_ms () in
    let reads = ref [ core.pipe_r ] and writes = ref [] and queue_max = ref 0 in
    let next_due = ref (now +. 100.0) in
    (match Timer_heap.min_elt core.timers with
    | Some (d, _, _) -> next_due := Float.min !next_due d
    | None -> ());
    Option.iter (fun (l, _) -> reads := l :: !reads) listen;
    List.iter
      (fun c ->
        let queued = Framing.queued c.wr in
        queue_max := max !queue_max queued;
        (match c.phase with
        | Connecting -> writes := c.fd :: !writes
        | Sniffing deadline ->
          next_due := Float.min !next_due deadline;
          reads := c.fd :: !reads
        | _ ->
          if queued > 0 then writes := c.fd :: !writes;
          reads := c.fd :: !reads))
      core.socks;
    Metrics.set core.meters.nm_queue_max (float_of_int !queue_max);
    let socks = core.socks in
    let timeout = Float.max 0.0 ((!next_due -. now) /. 1000.0) in
    match Unix.select !reads !writes [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem core.pipe_r readable then drain_pipe ();
      Option.iter (fun (l, _) -> if List.mem l readable then accept_all core l) listen;
      List.iter
        (fun c ->
          (match c.phase with
          | Connecting when (not c.closed) && List.mem c.fd writable -> (
            match Unix.getsockopt_error c.fd with
            | None -> c.phase <- Awaiting_hello
            | Some _ -> drop core c)
          | _ -> ());
          if (not c.closed) && List.mem c.fd readable then read_conn core ~routes ~deliver c)
        socks;
      let now = now_ms () in
      List.iter
        (fun c ->
          match c.phase with
          | Sniffing deadline when deadline <= now -> to_http core ~routes c
          | _ -> ())
        core.socks
  done;
  List.iter (fun c -> try Unix.close c.fd with _ -> ()) core.socks;
  core.socks <- [];
  Option.iter (fun (l, _) -> try Unix.close l with _ -> ()) listen

let shutdown core =
  core.stop <- true;
  wake core

(* ------------------------------------------------------------------ *)

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)
  module Client = Grid_paxos.Client

  type replica_handle = {
    r_core : core;
    replica : R.t;
    r_watchdog : Grid_obs.Watchdog.t;
    r_loop : Thread.t;
  }

  let start_replica ~cfg ~id ~port ~peers ?storage ?recovered ?obs
      ?(flight_capacity = 2048) ?backoff_base_ms ?backoff_cap_ms ?max_wire_version () =
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
    let listener = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
    Unix.setsockopt listener SO_REUSEADDR true;
    Unix.bind listener (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listener 64;
    Unix.set_nonblock listener;
    (* Engine access is confined to the loop thread; bootstrap (or
       reload the recovered image and restart, which applies the lease
       blackout) through an injected thunk. *)
    inject core (fun () ->
        run_actions core
          (match recovered with
          | None -> R.bootstrap replica
          | Some p ->
            R.load replica p;
            R.restart replica ~now:(now_ms ())));
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
      run_on_loop core (fun () ->
          let peer_json =
            peer_versions core
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
            |> List.map (fun (p, v) -> Printf.sprintf {|"%d":%d|} p v)
            |> String.concat ","
          in
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
    let r_loop =
      Thread.create (fun () -> event_loop ~listen:(listener, routes) core handle) ()
    in
    { r_core = core; replica; r_watchdog = watchdog; r_loop }

  (* Engine introspection must also run on the loop thread. *)
  let on_loop h f = run_on_loop h.r_core f
  let replica_is_leader h = on_loop h (fun () -> R.is_leader h.replica)
  let replica_commit_point h = on_loop h (fun () -> R.commit_point h.replica)
  let replica_state h = on_loop h (fun () -> R.state h.replica)
  let replica_metrics h = h.r_core.meters.registry
  let replica_watchdog h = h.r_watchdog
  let replica_peer_versions h = on_loop h (fun () -> peer_versions h.r_core)

  let stop_replica h =
    shutdown h.r_core;
    (try Thread.join h.r_loop with _ -> ());
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
  let client_peer_versions h = run_on_loop h.c_core (fun () -> peer_versions h.c_core)

  let stop_client h =
    shutdown h.c_core;
    (try Thread.join h.c_loop with _ -> ());
    release_meters h.c_core.meters
end
