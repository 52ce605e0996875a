(* Transport counters, one registry per node. Unlike the simulator's
   metrics these count real socket traffic: dial attempts and failures
   feed the backoff story, sent/received feed throughput sanity checks,
   and the byte counters price the wire format itself (the reason the
   codec is versioned at all). *)

module Metrics = Grid_obs.Metrics

type t = {
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

(* Per-peer series: the name embeds the peer id. *)
let peer_series name p = Printf.sprintf "grid_net_%s_peer_%d" name p

let make ~peers =
  let registry = Metrics.create () in
  let per_peer name help =
    let gauges = Hashtbl.create 8 in
    List.iter
      (fun p -> Hashtbl.replace gauges p (Metrics.gauge registry (peer_series name p) ~help))
      peers;
    gauges
  in
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
    nm_backoff =
      per_peer "backoff_ms" "Current reconnect backoff delay toward this peer (0 = healthy)";
    nm_wire_version =
      per_peer "wire_version"
        "Wire-protocol version negotiated with this peer (0 = not connected)";
  }

(* Set [peer]'s gauge in [nm_backoff] or [nm_wire_version]. *)
let set_peer gauges peer v = Option.iter (fun g -> Metrics.set g v) (Hashtbl.find_opt gauges peer)

(* One message of [n] on-wire bytes, sent or received. *)
let count_msg meters ~sent msg n =
  Metrics.inc (if sent then meters.nm_sent else meters.nm_received);
  Metrics.inc ~by:n (if sent then meters.nm_bytes_sent else meters.nm_bytes_received);
  Metrics.inc ~by:n meters.nm_bytes;
  match Hashtbl.find_opt meters.nm_bytes_by_kind (Grid_paxos.Types.msg_kind msg) with
  | Some c -> Metrics.inc ~by:n c
  | None -> ()

(* Release the per-peer gauges when the node stops: their names embed
   peer ids, so a node restarted against a different peer set must not
   inherit stale series from the previous incarnation. *)
let release meters =
  List.iter
    (fun (name, gauges) ->
      Hashtbl.iter (fun p _ -> Metrics.unregister meters.registry (peer_series name p)) gauges;
      Hashtbl.reset gauges)
    [ ("backoff_ms", meters.nm_backoff); ("wire_version", meters.nm_wire_version) ]
