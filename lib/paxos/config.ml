(** Static replica-group configuration and protocol timeouts.

    All durations are milliseconds of (simulated or real) time. The
    defaults suit the LAN scenario; WAN scenarios scale the election
    timeouts up via {!with_wan_timeouts}. *)

type t = {
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

let default ~n =
  if n < 1 then invalid_arg "Config.default: need at least one replica";
  {
    n;
    execution_cost_ms = 0.0;
    accept_retry_ms = 50.0;
    prepare_retry_ms = 50.0;
    hb_period_ms = 20.0;
    suspicion_ms = 100.0;
    stability_ms = 30.0;
    client_retry_ms = 500.0;
    record_history = false;
    ship = `Delta;
    snapshot_interval = 64;
    max_batch = 6;
    coordination = `State_shipping;
    disable_dedup = false;
    lease_ms = 0.0;
    clock_skew_bound_ms = 5.0;
    max_inflight = 0;
    max_queue = 0;
  }

let make ?base ?n ?execution_cost_ms ?accept_retry_ms ?hb_period_ms ?suspicion_ms
    ?stability_ms ?client_retry_ms ?record_history ?ship ?snapshot_interval ?max_batch
    ?coordination ?disable_dedup ?lease_ms ?clock_skew_bound_ms ?max_inflight ?max_queue
    () =
  let base =
    match base with
    | Some b -> b
    | None -> default ~n:(Option.value n ~default:3)
  in
  let n = Option.value n ~default:base.n in
  if n < 1 then invalid_arg "Config.make: need at least one replica";
  let v field override = Option.value override ~default:field in
  {
    n;
    execution_cost_ms = v base.execution_cost_ms execution_cost_ms;
    accept_retry_ms = v base.accept_retry_ms accept_retry_ms;
    prepare_retry_ms = base.prepare_retry_ms;
    hb_period_ms = v base.hb_period_ms hb_period_ms;
    suspicion_ms = v base.suspicion_ms suspicion_ms;
    stability_ms = v base.stability_ms stability_ms;
    client_retry_ms = v base.client_retry_ms client_retry_ms;
    record_history = v base.record_history record_history;
    ship = v base.ship ship;
    snapshot_interval = v base.snapshot_interval snapshot_interval;
    max_batch = v base.max_batch max_batch;
    coordination = v base.coordination coordination;
    disable_dedup = v base.disable_dedup disable_dedup;
    lease_ms = v base.lease_ms lease_ms;
    clock_skew_bound_ms = v base.clock_skew_bound_ms clock_skew_bound_ms;
    max_inflight = v base.max_inflight max_inflight;
    max_queue = v base.max_queue max_queue;
  }

let with_n t n = make ~base:t ~n ()

let with_wan_timeouts t =
  {
    t with
    accept_retry_ms = 500.0;
    prepare_retry_ms = 500.0;
    hb_period_ms = 200.0;
    suspicion_ms = 1000.0;
    stability_ms = 300.0;
    client_retry_ms = 3000.0;
  }

let quorum t = (t.n / 2) + 1
(** Majority size: ⌈(n+1)/2⌉, tolerating ⌊(n−1)/2⌋ crashed replicas. *)

let replica_ids t = List.init t.n Fun.id
