(** TCP runtime: hosts the same pure protocol engines that run on the
    simulator over real sockets and threads.

    Each node runs one event loop (a [select] on a self-pipe, the inbox
    and the timer queue). Peer connections are dialed lazily and
    deduplicated by the handshake's node id; replies to clients travel
    back over the connection the client dialed in on.

    The handshake also negotiates the wire-protocol version: each side
    sends the highest {!Grid_paxos.Wire_codec} version it speaks
    (dialer first, listener answering) and the connection settles on the
    minimum, so a cluster can be upgraded one replica at a time — old
    and new builds interoperate on V1 until both ends speak V2. The
    negotiated version is pinned per connection and visible as
    [grid_net_wire_version_peer_<id>] gauges, in [GET /health], and via
    {!Make.replica_peer_versions}.

    A failed dial puts the peer on exponential backoff (doubling from
    [backoff_base_ms] to [backoff_cap_ms], default 20 ms to 2 s,
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
    message kind as [grid_net_bytes_total_<kind>]. Corrupt or
    undecodable frames increment [grid_net_decode_errors_total] and
    drop the connection (a byte stream cannot be resynchronized after a
    bad frame); the next send redials.

    Each replica's listening port doubles as a plaintext admin endpoint:
    the accept loop peeks the first bytes of a new connection and routes
    HTTP methods ([GET]/[HEAD]/[POST]) to a minimal HTTP/1.0 responder
    instead of the protocol handshake. [GET /metrics] serves the node's
    registry in Prometheus exposition format, [GET /health] a one-line
    JSON summary (role, ballot, commit point, lease, admission queue
    depths, watchdog violations, wire versions), and [GET /flightrec]
    the node's bounded always-on flight recorder as JSONL (readable back
    with {!Grid_obs.Span.load_string}). No extra port, thread pool or
    dependency: one short-lived thread per request.

    This is the backend for [bin/replica.exe] and [bin/client.exe], and
    for the loopback integration tests. The evaluation itself uses the
    simulator (DESIGN.md §2) — this module demonstrates that the engines
    are transport-agnostic. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  type replica_handle

  val start_replica :
    cfg:Grid_paxos.Config.t ->
    id:int ->
    port:int ->
    peers:(int * Unix.sockaddr) list ->
    ?storage:Grid_paxos.Storage.t ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?flight_capacity:int ->
    ?backoff_base_ms:float ->
    ?backoff_cap_ms:float ->
    ?max_wire_version:int ->
    unit ->
    replica_handle
  (** Bind [port], bootstrap the replica engine, and serve until
      {!stop_replica}; the same port answers admin HTTP requests
      ([/metrics], [/health], [/flightrec]). [peers] maps the other
      replica ids to their addresses. [obs] receives the engine's
      lifecycle spans and the transport's message events, timed on the
      wall clock (ms since the epoch); when omitted, the node keeps its
      own always-on flight recorder over the last [flight_capacity]
      events (default 2048). The replica also reports to an online
      invariant watchdog ({!Grid_obs.Watchdog}) whose counters live in
      {!replica_metrics} and which honours
      [cfg.watchdog_fail_stop]. [backoff_base_ms]/[backoff_cap_ms] bound
      the reconnect backoff toward dead peers (defaults 20/2000).
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
      [GET /metrics]. *)

  val replica_obs : replica_handle -> Grid_obs.Span.Recorder.t
  (** The node's span recorder (the flight recorder unless [obs] was
      supplied). Served by [GET /flightrec]. *)

  val replica_watchdog : replica_handle -> Grid_obs.Watchdog.t
  (** The node's online invariant sink; zero on healthy runs. *)

  val replica_peer_versions : replica_handle -> (int * int) list
  (** [(peer, negotiated wire version)] for every live connection. *)

  val stop_replica : replica_handle -> unit
  (** Stop the loops, close the listener and connections, and release the
      per-peer gauges from the node's registry. *)

  type client_handle

  val start_client :
    id:int ->
    replicas:(int * Unix.sockaddr) list ->
    ?retry_ms:float ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?backoff_base_ms:float ->
    ?backoff_cap_ms:float ->
    ?max_wire_version:int ->
    unit ->
    client_handle
  (** Connect to every replica. The client keeps no listening socket;
      replies arrive on the dialed connections. [obs], the backoff
      bounds and [max_wire_version] are as for {!start_replica}. *)

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
      [call_op] returns [None] at once without submitting anything. *)

  val client_metrics : client_handle -> Grid_obs.Metrics.t

  val client_peer_versions : client_handle -> (int * int) list
  (** [(replica, negotiated wire version)] for every live connection. *)

  val stop_client : client_handle -> unit
end
