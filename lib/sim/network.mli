(** Simulated message-passing network.

    Nodes are integers in a single id space (the runtime assigns replicas
    and clients disjoint ranges). The network models:

    - {b link latency}: a default {!Latency.t} plus per-directed-link
      overrides; per-(src,dst) FIFO delivery is enforced (delivery times
      are clamped to be non-decreasing per pair), matching the paper's TCP
      channels;
    - {b node CPU}: each node is a serial processor with a per-message
      send cost and receive cost (milliseconds). Sends occupy the sender
      before the message departs and receives occupy the receiver before
      its handler runs, which is what makes closed-loop throughput
      saturate like Figures 5–6;
    - {b failures}: crashed nodes neither send nor receive (in-flight
      messages to a node that is down at delivery time are dropped);
      partitions drop messages crossing the cut; a uniform drop rate can
      inject message loss.

    The paper assumes reliable channels between correct processes;
    retransmission on top of loss is the job of the protocol layer. *)

type 'msg t

val create : Engine.t -> Grid_util.Rng.t -> 'msg t
(** The RNG drives latency sampling and message drops; split it from the
    experiment seed. *)

val engine : 'msg t -> Engine.t

(** {1 Topology} *)

val add_node :
  'msg t ->
  id:int ->
  ?recv_cost:float ->
  ?send_cost:float ->
  (src:int -> 'msg -> unit) ->
  unit
(** Register a node and its message handler. Costs default to [0.]. *)

val set_default_latency : _ t -> Latency.t -> unit
val set_link : _ t -> src:int -> dst:int -> Latency.t -> unit
val set_link_sym : _ t -> int -> int -> Latency.t -> unit
(** Set both directions of a link. *)

(** {1 Messaging} *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** No-op (counted as dropped) if the sender is down, the destination is
    unknown, the pair is partitioned, or the drop die comes up. *)

val broadcast : 'msg t -> src:int -> dsts:int list -> 'msg -> unit

(** {1 Failures} *)

val crash : _ t -> int -> unit
val recover : _ t -> int -> unit

val partition : _ t -> int list -> int list -> unit
(** Cut every link between the two groups (both directions). *)

val heal : _ t -> unit
(** Remove all partitions. *)

val set_drop_rate : _ t -> float -> unit
(** Uniform probability in [\[0,1\]] of silently dropping any message. *)

val set_duplicate_rate : _ t -> float -> unit
(** Probability in [\[0,1\]] that a delivered message is also delivered a
    second time. The duplicate travels on an independently sampled path
    and ignores the per-pair FIFO clamp, so it can overtake the original
    — a retransmission after a spurious timeout. Exercises the protocol's
    request-dedup and stale-message paths. *)

val set_reorder_rate : _ t -> float -> unit
(** Probability in [\[0,1\]] that a message escapes the per-pair FIFO
    clamp: its delivery time is neither pushed back to the channel's last
    delivery nor recorded, so it can arrive before messages sent earlier
    on the same directed pair (and later traffic can overtake it). *)

val set_delay_spike : _ t -> rate:float -> magnitude_ms:float -> unit
(** With probability [rate], add [magnitude_ms] to a message's sampled
    link latency — a transient congestion spike on one hop. Spiked
    messages still respect FIFO clamping, so a spike delays everything
    behind it on that channel, which is what provokes spurious suspicion
    timeouts and duplicate leader work. *)

val set_bandwidth : _ t -> float -> unit
(** Link bandwidth in bytes per millisecond; adds [size/bandwidth]
    transmission time to every message once a sizer is installed.
    Default: infinite (size-free links). *)

val set_sizer : 'msg t -> ('msg -> int) -> unit
(** Install the function estimating a message's wire size. *)

val scale_node_costs : _ t -> int -> factor:float -> unit
(** Multiply a node's per-message CPU costs (connection-count load
    modelling). *)

(** {1 Introspection} *)

type stats = {
  sent : int;
  delivered : int;  (** physical deliveries, duplicates included *)
  dropped : int;
  duplicated : int;  (** extra copies injected by the duplicate dice *)
  reordered : int;  (** messages that bypassed the FIFO clamp *)
  delayed : int;  (** messages hit by a delay spike *)
}

val stats : _ t -> stats
