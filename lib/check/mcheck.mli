(** Randomized-schedule state-space exploration of the protocol engines,
    with a cross-layer nemesis.

    A scheduler owns the message pool (FIFO per directed pair, as with
    TCP) and the timer set, and drives the replicas through interleavings
    far more adversarial than latency-ordered simulation. On top of the
    schedule itself, a {!nemesis} injects:

    - {b crashes and recoveries} at any step — recovery is
      crash-consistent: the replica is rebuilt from its persisted image
      via {!Grid_paxos.Replica.Make.load}, not from the in-memory object;
    - {b torn persists}: a crash can instead be armed to strike while
      the victim writes its next step's records ({!persist_step}): a
      prefix of them lands, as on [Storage.file] when the process dies,
      and none of the step's messages or timers leave;
    - {b duplication}: a delivered message is re-enqueued at its
      channel's tail, arriving again later (a retransmission);
    - {b reordering}: a delivery taken from the middle of its channel
      instead of the head (FIFO escape);
    - {b clock drift}: a replica's local clock jumps to a bounded offset
      from virtual time, attacking the leader-lease skew assumption
      (timers are unaffected — they measure durations).

    Client requests travel through the same schedulable channels as
    protocol messages, so the nemesis applies to them too.

    Every fault that fires is recorded in a {!plan}, at most one event
    per scheduler step and fault site (the step's nemesis event, the
    delivered message's reorder, its duplicate, the tear of the step's
    records). Each site makes one decision that either rolls the fault
    dice or reads the plan, and scheduling choices draw from a separate
    RNG stream, so {!Make.explore} with the [plan] of a recorded run
    rolls no dice and reproduces the run exactly; {!shrink_plan} then greedily drops
    plan events to find a minimal failing schedule. *)

(** {1 Fault plans} *)

type fault_event =
  | Crash_at of { step : int; victim : int; torn : bool }
  | Recover_at of { step : int; victim : int }
  | Duplicate_at of { step : int }
  | Reorder_at of { step : int; depth : int }
      (** the delivery at [step] took the element [depth] places behind
          the channel head *)
  | Drift_at of { step : int; victim : int; offset_ms : float }
      (** the victim's clock becomes virtual time + [offset_ms] *)
  | Upgrade_at of { step : int; victim : int; version : int }
      (** rolling upgrade: the victim is bounced (crash-consistent
          restart) and comes back speaking wire-protocol [version] *)
  | Tear_at of { step : int; victim : int; kept : int; records : int }
      (** the victim's torn crash struck at [step]: the first [kept] of
          the step's [records] records landed ([0 <= kept <= records]) *)

type plan = fault_event list

val pp_plan : Format.formatter -> plan -> unit

type nemesis = {
  crash_prob : float;
      (** per-step probability of a crash; recovery triggers in the
          [\[crash_prob, 2*crash_prob)] window of the same roll *)
  torn_frac : float;  (** fraction of crashes that are torn persists *)
  dup_prob : float;  (** per-delivery duplication probability *)
  reorder_prob : float;  (** per-delivery FIFO-escape probability *)
  drift_prob : float;
      (** per-step probability that one replica's clock jumps to a fresh
          offset; dice for it roll only when positive, so seeds explored
          without drift keep their schedules *)
  drift_max_ms : float;  (** drifted offsets are uniform in [-max, +max] *)
}

val no_faults : nemesis

val shrink_plan : still_fails:(plan -> bool) -> plan -> plan
(** Greedy event removal to a fixed point: drop any event whose removal
    keeps [still_fails] true. The predicate should replay the schedule
    deterministically (see [plan] in {!Make.explore}). *)

(** {1 Outcomes} *)

type outcome = {
  replies : Grid_paxos.Types.reply list;
  violations : Agreement.violation list;
  durability : string list;
      (** crash-recovery invariant breaches: a revived replica whose
          reloaded state disagrees with the committed prefix the group
          observed, or conflicting committed values across incarnations *)
  stale_reads : string list;
      (** reads whose first reply matches no committed state at or after
          the read's issue-time watermark — i.e. the reply misses writes
          that were committed before the read was issued. This is the
          invariant the leader-lease read fast path must preserve under
          clock drift and leader failovers. *)
  lost_admitted : string list;
      (** admitted-loss oracle breaches: writes acknowledged [Ok] that no
          replica (across incarnations) ever observed committed. A shed
          request never receives [Ok], so admission control cannot mask a
          loss; a non-empty list means pushback broke durability. *)
  admitted_latencies : float array;
      (** virtual-time latency (first injection to first final reply) of
          every request that completed, in completion order. [Overloaded]
          pushback rounds are folded into the eventual completion's
          latency, so a percentile over this array bounds what an
          admitted client actually waited. *)
  committed : int array;  (** commit point per replica at the end *)
  delivered : int;
  timer_fires : int;
  all_replied : bool;
      (** every injected request got a reply by the end of the drain *)
  plan : plan;
      (** the faults that actually fired, in order; at most one per
          (step, site) *)
  crashes : int;
  torn_persists : int;  (** the plan's [Tear_at] events *)
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections that fired *)
  upgraded : int;  (** rolling-upgrade bounces that fired *)
  shed : int;
      (** [Overloaded] replies leaders pushed back (0 unless the config
          bounds admission via [max_inflight]/[max_queue]) *)
  wire_errors : string list;
      (** wire-codec oracle breaches: a message that failed the
          encode → decode roundtrip through the version negotiated for
          its link. Always empty unless the run models wire versions
          ([wire_versions]/[upgrades]); non-empty fails the run. *)
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas during the run — the runtime mirror of the offline
          oracles, asserted silent on green schedules *)
  watchdog_detail : string list;  (** one line per violation, firing order *)
}

(** {1 Storage faults} *)

val persist_step :
  Grid_paxos.Storage.t ->
  tear:(int -> int option) ->
  Grid_paxos.Types.step ->
  Grid_paxos.Types.action list option
(** Apply one engine step's [persist] records to a store, in order.
    [tear n] is asked only for a step with [n > 0] records: [None]
    writes them all and returns the step's [out]; [Some k] writes the
    first [k] and returns [None] — the process died mid-step, so none of
    its sends or timers run. *)

module Make (S : Grid_paxos.Service_intf.S) : sig
  module R : module type of Grid_paxos.Replica.Make (S)

  val request : int -> S.op -> int * Grid_paxos.Types.rtype * string
  (** [request client op] builds a typed request triple for [requests]:
      the class comes from [S.classify] and the payload from
      [S.encode_op], so callers never construct wire strings. *)

  val explore :
    ?obs:Grid_obs.Span.Recorder.t ->
    ?seed:int ->
    ?steps:int ->
    ?nemesis:nemesis ->
    ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
    ?requests:(int * Grid_paxos.Types.rtype * string) list ->
    ?wire_versions:int array ->
    ?upgrades:(int * int * int) list ->
    ?plan:plan ->
    unit ->
    outcome
  (** Explore one schedule over a 3-replica group. [obs] receives the
      replicas' lifecycle spans, timed on the scheduler's virtual clock —
      deterministic for a given seed. [requests] are
      (client id, rtype, payload) triples; each client's requests are
      injected in order (closed loop) and retransmitted until answered.
      The nemesis keeps at most one replica down at a time. After [steps] scheduling choices the nemesis stops, every replica
      is recovered from storage, and the system is drained so liveness
      can be asserted. [cfg_tweak] edits the group's
      {!Grid_paxos.Config.t} before the replicas are built — e.g. to
      enable leader leases ([lease_ms]) for the stale-read oracle, or
      [disable_dedup] to plant the double-commit bug the request-dedup
      table exists to prevent.

      [wire_versions] turns on the wire-codec model: one protocol
      version per replica, and every delivered message is run through
      the codec its link would negotiate over TCP
      (min of the endpoints' versions; clients speak
      {!Grid_paxos.Wire_codec.latest_version}). [upgrades] scripts
      rolling upgrades as [(step, victim, version)] triples: at [step]
      the victim is bounced crash-consistently and comes back speaking
      [version] — the mixed-version cluster scenario. Roundtrip
      failures land in [wire_errors] and fail the run.

      [plan] replays a schedule: every fault decision (crash, recovery,
      drift, upgrade, reorder, duplicate, tear) is read from the plan
      instead of rolled, so neither [nemesis] nor the [upgrades] script
      is consulted. With the plan and the other arguments of a recorded run, the
      replay is exact; with a shrunk plan it is best-effort: an event
      whose precondition no longer holds (its victim already down or
      up, or a crash while another replica is down) is skipped and left
      out of the outcome's plan. *)
end
