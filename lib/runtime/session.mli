(** Multiplexed client sessions: an O(1)-per-client pool over the
    runtime, built for open-loop experiments that need 10^5+ concurrent
    outstanding requests in one simulation.

    Each session wraps one protocol client registered {e light} (see
    {!Runtime.Make.add_client}): no per-replica link records — the
    network's default latency is pointed at the scenario's client link
    at pool creation — and zero modelled CPU cost. Sessions are recycled
    through a free list the moment their request completes, so a
    long open-loop run touches a bounded set of simulator nodes no
    matter how many requests it issues. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module RT : module type of Runtime.Make (S)

  type t

  val create : RT.t -> t
  (** Build an empty pool over a runtime. Sessions are registered on
      demand, up to 200k; their client ids start at 100k, so other
      clients on the runtime must stay below that. Registers session
      gauges/counters and the leader-admission gauges in the runtime's
      metrics registry, so at most one pool per runtime. Sets the
      runtime network's default latency to the scenario's client link. *)

  val submit :
    t ->
    S.op Runtime.item ->
    on_reply:(Grid_paxos.Types.reply -> latency_ms:float -> unit) ->
    [ `Submitted | `No_session ]
  (** Submit on an idle session (registering a new one if the free list
      is empty and the pool is below 200k sessions). [`No_session]
      means every session is busy — the open-loop driver counts the
      arrival as dropped. [on_reply] fires with the request's {e final}
      reply and its latency in simulated ms; [Overloaded] pushback and
      backoff rounds happen inside the session's client and are folded
      into that latency. The session returns to the free list before
      [on_reply] runs, so a callback may resubmit immediately. *)

  val sample_leader : t -> unit
  (** Refresh the leader-admission gauges (queue depth, reads in
      flight, cumulative sheds) from the current leader, if any. *)

  (** {1 Introspection} *)

  val runtime : t -> RT.t
  val sessions : t -> int
  (** Sessions registered so far. *)

  val peak_in_flight : t -> int
  (** High-water mark of concurrently outstanding sessions. *)

  val submitted : t -> int
  val completed : t -> int

  val rejected : t -> int
  (** Arrivals refused with [`No_session]. *)
end
