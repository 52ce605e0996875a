(** TCP runtime: hosts the same pure protocol engines that run on the
    simulator over real sockets. This module holds the two roles, the
    replica node and the client session; both run over {!Transport},
    which owns the sockets and the loop.

    {b Thread model.} Each node (a replica or a client session) runs
    exactly one loop thread. It [select]s over a wake pipe, the
    replica's listening socket and every peer socket, and no other
    thread touches a socket. Each round runs the thunks other threads
    injected (client calls, introspection), fires due timers, flushes
    every output queue, waits in [select], then reads each readable
    socket once and hands every complete frame to the engine. So all of
    a round's sends leave together, after all of its inputs. Admin HTTP
    requests (below) are answered by the same thread: a node starts no
    other. A loop that an exception ends (a handler that raises,
    [select] refusing a descriptor) shuts down as a stopped one does:
    it runs the thunks already injected, closes its sockets, and the
    node refuses further work, so callers get [Invalid_argument] or
    [None] instead of waiting forever.

    {b Non-blocking I/O.} Every socket is non-blocking and nothing in
    the loop blocks but [select]:
    - reads go into a per-socket {!Grid_codec.Frame.reader} (1 KiB,
      grown only for a large frame and shrunk back once it drains);
    - writes go into a per-socket output queue, flushed while the socket
      is writable. A peer that stops reading (a stopped process) fills
      its queue up to {!send_queue_bound}; past that, new frames to it
      are dropped and counted in [grid_net_send_dropped_total], and
      Paxos retransmission recovers them as it does for an unreachable
      peer. [grid_net_send_queue_max_bytes] is the largest queue after
      the last flush;
    - dials use a non-blocking [connect], and the listener's hello is
      parsed by the loop like any other frame. Messages sent while a
      dial's handshake is in flight are held (at most 256, the rest
      dropped and counted) and encoded with the negotiated codec once it
      completes. A peer that accepts but never answers therefore costs
      one idle socket, not a frozen loop;
    - accepts happen in the loop too, and an accepted socket that stays
      silent costs nothing but its descriptor.
    [select] limits a node to descriptors below [FD_SETSIZE] (1024 on
    Linux): some hundreds of connections per process.

    Peer connections are dialed lazily and deduplicated by the
    handshake's node id; replies to clients travel back over the
    connection the client dialed in on. A simultaneous dial leaves two
    sockets to one peer: both are read, sends go to the newer one, and
    if it closes they move to the other.

    The handshake also negotiates the wire-protocol version: each side
    sends the highest {!Grid_paxos.Wire_codec} version it speaks
    (dialer first, listener answering) and the connection settles on the
    minimum, so a cluster can be upgraded one replica at a time — old
    and new builds interoperate on V1 until both ends speak V2. The
    negotiated version is pinned per connection and visible as
    [grid_net_wire_version_peer_<id>] gauges, in [GET /health], and via
    {!Make.replica_peer_versions}.

    A failed dial (refused, or closed before its handshake completed)
    puts the peer on exponential backoff (doubling from 20 ms to 2 s,
    jittered per node), so a dead peer costs one connect attempt per
    backoff window instead of one per outgoing message, and a restarting
    replica is not reconnected by every peer in the same instant. A
    successful dial resets the peer's backoff; losing an established
    connection never delays the first redial. Each node's metrics
    registry exposes the live per-peer delay as
    [grid_net_backoff_ms_peer_<id>] gauges (0 = healthy).

    Transport byte accounting: [grid_net_bytes_total] counts on-wire
    bytes in both directions (frame header and CRC included), split as
    [grid_net_bytes_sent_total]/[grid_net_bytes_received_total] and by
    message kind as [grid_net_bytes_total_<kind>]. A sent message is
    counted when it is queued. Corrupt or undecodable frames increment
    [grid_net_decode_errors_total] and drop the connection (a byte
    stream cannot be resynchronized after a bad frame); the next send
    redials.

    Each replica's listening port doubles as a plaintext admin endpoint.
    The loop classifies a new connection by its first bytes as they
    arrive: a protocol hello starts with a tiny length byte, an HTTP
    request with [GET ]/[HEAD]/[POST]; a short method-like prefix waits
    up to 50 ms for the rest before it is trusted. An HTTP socket stays
    with the loop, which buffers its request line (a line longer than
    4 KiB is answered with its first 4 KiB), answers from the node's
    state in place through the socket's output queue, and closes the
    socket once the answer has left: a minimal HTTP/1.0 responder. A
    request that stalls mid-line costs its descriptor, nothing more; one
    still arriving when the node stops is answered [503].
    [GET /metrics] serves the node's registry in Prometheus exposition
    format, [GET /health] a one-line JSON summary (role, ballot, commit
    point, lease, admission queue depths, watchdog violations, wire
    versions), and [GET /flightrec] the node's bounded always-on flight
    recorder as JSONL (readable back with {!Grid_obs.Span.load_string}).
    No extra port, thread pool or dependency.

    This is the backend for [bin/replica.exe] and [bin/client.exe], and
    for the loopback integration tests and the wall-clock benchmark. *)

val send_queue_bound : int
(** 1 MiB: the output queue toward one socket past which new frames to
    it are dropped. A lone frame larger than this still goes. *)

val flight_recorder_events : int
(** 2048: the ring size of a replica's always-on flight recorder. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  type replica_handle

  val start_replica :
    cfg:Grid_paxos.Config.t ->
    id:int ->
    port:int ->
    peers:(int * Unix.sockaddr) list ->
    ?storage:Grid_paxos.Storage.t ->
    ?recovered:Grid_paxos.Storage.persisted ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?max_wire_version:int ->
    unit ->
    replica_handle
  (** Bind [port], bootstrap the replica engine, and serve until
      {!stop_replica}; the same port answers admin HTTP requests
      ([/metrics], [/health], [/flightrec]). [peers] maps the other
      replica ids to their addresses. [storage] receives the [persist]
      records of each engine {!Grid_paxos.Types.step}, in order, written
      on the loop thread before any send of the same step is queued
      (without it they are dropped). [recovered] is the image
      {!Grid_paxos.Storage.file} read back from [storage]: the engine
      loads it (promise, accepted entries, committed state) and restarts
      as after a crash instead of booting fresh. [obs] receives the engine's
      lifecycle spans and the transport's message events, timed on the
      wall clock (ms since the epoch); when omitted, the node keeps its
      own always-on flight recorder over the last
      {!flight_recorder_events} events. The replica also reports to an
      online invariant watchdog ({!Grid_obs.Watchdog}) whose counters
      live in {!replica_metrics}.
      [max_wire_version] caps the wire-protocol version this node
      advertises (default {!Grid_paxos.Wire_codec.latest_version});
      pinning it to an older version emulates a not-yet-upgraded build
      in rolling-upgrade tests.

      Starting a replica or a client sets [SIGPIPE] to ignored for the
      whole process: a write to a peer that just closed raises [EPIPE],
      which the transport handles by dropping the connection. *)

  val replica_is_leader : replica_handle -> bool
  val replica_commit_point : replica_handle -> int
  val replica_state : replica_handle -> S.state

  val replica_metrics : replica_handle -> Grid_obs.Metrics.t
  (** This node's registry: transport counters (messages and bytes
      sent/received, per-kind bytes, decode errors, dial attempts and
      failures, established connections, per-peer backoff and wire
      version) and the watchdog violation counters. Served by
      [GET /metrics]. The replica's four resharding gauges
      ([grid_reshard_epoch], [grid_reshard_migrating],
      [grid_reshard_moved_ranges], [grid_reshard_imported_items]) are
      set when [GET /metrics] is served, their only reader: read from
      this registry directly they hold the values of the last scrape. *)

  val replica_watchdog : replica_handle -> Grid_obs.Watchdog.t
  (** The node's online invariant sink; zero on healthy runs. *)

  val replica_peer_versions : replica_handle -> (int * int) list
  (** [(peer, negotiated wire version)] for every live connection. *)

  val replica_transport : replica_handle -> Transport.t
  (** The node under the handle, for posting work onto its loop
      ({!Transport.inject}). *)

  val stop_replica : replica_handle -> unit
  (** Stop the loop, answer [503] to any admin request still arriving,
      close the listener, the connections and the node's wake pipe, and
      release the per-peer gauges from the node's
      registry. The [storage] given to {!start_replica} stays open: it
      is the caller's. Afterwards the accessors that run on the loop
      ([replica_is_leader], [replica_commit_point], [replica_state],
      [replica_peer_versions]) raise [Invalid_argument] instead of
      waiting; [replica_metrics] and [replica_watchdog] still answer.
      A replica whose start raises (its port in use) leaves no
      descriptor open. *)

  type client_handle

  val start_client :
    id:int ->
    replicas:(int * Unix.sockaddr) list ->
    ?retry_ms:float ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?max_wire_version:int ->
    unit ->
    client_handle
  (** Connect to every replica. The client keeps no listening socket;
      replies arrive on the dialed connections. [obs] and
      [max_wire_version] are as for {!start_replica}. *)

  val call_op :
    client_handle ->
    ?unreplicated:bool ->
    S.op ->
    timeout_s:float ->
    Grid_paxos.Types.reply option
  (** Synchronous typed request: broadcast to all replicas, wait for the
      leader's reply (with protocol-level retransmission), [None] on
      timeout. The request class comes from [S.classify] (or [Original]
      when [unreplicated] is set) and the payload from [S.encode_op] —
      there is no raw [rtype ~payload] entry point; callers never
      construct wire strings.

      The result is only ever the reply to the request this call
      submitted, never a late reply to an earlier one. The client is
      closed-loop: a timed-out request stays outstanding (and keeps
      being retransmitted) until it completes, and until then every
      [call_op] returns [None] at once without submitting anything.
      On a stopped client, [call_op] also returns [None] at once. *)

  val client_transport : client_handle -> Transport.t
  (** As {!replica_transport}. *)

  val client_metrics : client_handle -> Grid_obs.Metrics.t

  val client_peer_versions : client_handle -> (int * int) list
  (** [(replica, negotiated wire version)] for every live connection. *)

  val stop_client : client_handle -> unit
  (** Stop the loop and close the connections and the wake pipe, as
      {!stop_replica} does; [client_peer_versions] then raises
      [Invalid_argument]. *)
end
