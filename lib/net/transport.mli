(** The node-agnostic half of the TCP runtime: one loop thread per node
    over non-blocking sockets, with dials, accepts, the versioned
    handshake, per-socket frame queues, reconnect backoff, timers and
    the admin HTTP endpoint on a listening port. {!Tcp_node} runs its
    two roles over it, the replica node and the client session, and
    documents the thread model and the wire behaviour.

    A role plugs in two things, its input handler and its admin routes
    ({!start}); a replica role writes each step's records before its
    handler returns the step's actions. Sockets, handshake state and
    frame queues stay behind this interface. *)

type t
(** One node: its loop thread, wake pipe, sockets, timers and meters. *)

val send_queue_bound : int
(** See {!Tcp_node.send_queue_bound}. *)

val now_ms : unit -> float
(** The wall clock the loop stamps inputs and spans with (ms since the
    epoch). *)

val create :
  ?listen_port:int ->
  ?obs:Grid_obs.Span.Recorder.t ->
  ?max_wire_version:int ->
  node_id:int ->
  actor:string ->
  addresses:(int * Unix.sockaddr) list ->
  unit ->
  t
(** A node that dials [addresses] (peer id to address) on demand. With
    [listen_port] it first binds that loopback port, for peers and admin
    requests; a bind that fails leaves nothing open. Sets [SIGPIPE] to
    ignored. *)

val start :
  t ->
  ?routes:(string -> (string * string) option) ->
  (now:float -> Grid_paxos.Types.input -> Grid_paxos.Types.action list) ->
  unit
(** Start the loop thread. The handler gets every due timer and received
    message and returns the actions the loop performs. [routes] maps an
    admin request's path to [(content_type, body)], or [None] for a 404
    (the default). Both run on the loop thread. *)

val inject : t -> (unit -> Grid_paxos.Types.action list) -> unit
(** Run a thunk on the loop thread and perform the actions it returns.
    A thunk injected before {!stop} still runs, and so does one
    injected before an exception ended the loop. Raises
    [Invalid_argument] once the node is stopping or its loop has
    ended. *)

val run_on_loop : t -> (unit -> 'a) -> 'a
(** Run [f] on the loop thread and wait for its result: how another
    thread reads state the loop owns. An exception [f] raises is raised
    again in the caller, and the loop runs on. Raises
    [Invalid_argument] on a stopped node or one whose loop has ended. *)

val stop : t -> unit
(** Stop the loop and join it. On its way out the loop answers every
    admin request whose line is still arriving with [503], then closes
    its sockets and the listener; the wake pipe closes after the join,
    and the per-peer gauges leave the registry. *)

val registry : t -> Grid_obs.Metrics.t
(** The node's transport counters and gauges ({!Tcp_node}). *)

val max_wire_version : t -> int
(** The highest wire version this node advertises. *)

val peer_versions : t -> (int * int) list
(** [(peer, negotiated wire version)] for every live connection. Loop
    thread only. *)
