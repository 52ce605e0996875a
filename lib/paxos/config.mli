(** Static replica-group configuration and protocol timeouts.

    All durations are milliseconds of (simulated or real) time. The
    defaults suit the LAN scenario; WAN scenarios scale the election
    timeouts up via {!with_wan_timeouts}.

    The record is [private]: read fields freely, but build values with
    {!default}, {!make} or the [with_*] helpers so every configuration
    goes through the same validation. *)

type t = private {
  n : int;  (** number of replicas; ids are [0 .. n-1] *)
  execution_cost_ms : float;
      (** the paper's E: service execution time per request *)
  accept_retry_ms : float;  (** leader retransmission of Accept *)
  prepare_retry_ms : float;  (** candidate retransmission of Prepare *)
  hb_period_ms : float;  (** heartbeat broadcast period *)
  suspicion_ms : float;  (** silence after which a replica is suspected *)
  stability_ms : float;
      (** candidate hold-down before starting a takeover (leader
          stability, §3.6). Skipped on a fresh full view — every replica
          heard and no ballot seen anywhere — where there is no leader to
          depose and only the lowest id is candidate; skipping it there
          can cost a [Reject] round (liveness), never safety. *)
  client_retry_ms : float;  (** client retransmission timeout *)
  record_history : bool;
      (** keep the full committed-request history in memory (for the
          linearizability and agreement checkers; off for benchmarks) *)
  ship : [ `Full | `Delta | `Witness ];
      (** how accepted proposals carry the new state (§3.3): full encoded
          state, service-provided delta, or a determinization witness the
          followers replay. [`Delta] and [`Witness] fall back to [`Full]
          when the service cannot provide them. *)
  snapshot_interval : int;
      (** persist a snapshot and prune the log every this many commits *)
  max_batch : int;
      (** largest write batch the leader folds into one instance *)
  coordination : [ `State_shipping | `Request_shipping ];
      (** [`State_shipping] is the paper's protocol: instances decide on
          ⟨request, state⟩ and followers adopt the shipped state.
          [`Request_shipping] is classic Multi-Paxos (replicated state
          machines, §3.3 ¶1): instances decide on the request only and
          every replica re-executes it locally — correct only for
          deterministic services, and included as the baseline whose
          divergence on nondeterministic services motivates the paper. *)
  disable_dedup : bool;
      (** fault-injection backdoor: leaders treat every request as fresh,
          so a duplicated/retransmitted request commits twice. Exists so
          the nemesis harness can demonstrate that its duplication dice
          and schedule shrinking actually catch the bug the dedup table
          prevents. Never enable outside tests. *)
  lease_ms : float;
      (** leader-lease duration. While the leader holds unexpired lease
          grants from a majority it answers reads locally, with zero
          protocol messages; [0.0] (the default) disables the fast path
          and reads use the X-Paxos confirm round. A follower that
          granted a lease refuses to promise to a different candidate
          until the grant expires on its own clock. *)
  clock_skew_bound_ms : float;
      (** assumed bound on how much any two replica clocks can drift
          relative to each other within one lease window. The leader
          retires each grant this much earlier than its nominal expiry,
          so leases stay safe as long as real drift honours the bound. *)
  max_inflight : int;
      (** admission control: bound on reads the leader holds awaiting
          confirmation/execution. [0] (the default) means unbounded.
          Reads past the bound are shed with [Overloaded] — before writes,
          since a shed read costs the client one round trip while a shed
          write loses queued work. *)
  max_queue : int;
      (** admission control: bound on the leader's pending-write queue.
          [0] (the default) means unbounded. Writes arriving when the
          queue is full are shed with [Overloaded]; reads are shed
          already at half this depth (read-shedding priority). *)
}

val default : n:int -> t
(** LAN defaults for an [n]-replica group. Raises [Invalid_argument] if
    [n < 1]. *)

val make :
  ?base:t ->
  ?n:int ->
  ?execution_cost_ms:float ->
  ?accept_retry_ms:float ->
  ?hb_period_ms:float ->
  ?suspicion_ms:float ->
  ?stability_ms:float ->
  ?client_retry_ms:float ->
  ?record_history:bool ->
  ?ship:[ `Full | `Delta | `Witness ] ->
  ?snapshot_interval:int ->
  ?max_batch:int ->
  ?coordination:[ `State_shipping | `Request_shipping ] ->
  ?disable_dedup:bool ->
  ?lease_ms:float ->
  ?clock_skew_bound_ms:float ->
  ?max_inflight:int ->
  ?max_queue:int ->
  unit ->
  t
(** Smart constructor: start from [base] (default [default ~n], where [n]
    defaults to 3) and override the named fields. [Config.make ()] is the
    3-replica LAN default; [Config.make ~base:cfg ~ship:`Full ()] is the
    record-update idiom. Raises [Invalid_argument] if the resulting [n]
    is < 1. *)

val with_n : t -> int -> t
(** [with_n t n] is [t] resized to [n] replicas (scenario overrides). *)

val with_wan_timeouts : t -> t
(** Election and retransmission timeouts scaled for WAN latencies. *)

val quorum : t -> int
(** Majority size: ⌈(n+1)/2⌉, tolerating ⌊(n−1)/2⌋ crashed replicas. *)

val replica_ids : t -> int list
(** [0 .. n-1]. *)
