(** The replicated-service process: one engine implementing the paper's
    three coordination paths plus leader election and recovery.

    - {b Basic protocol} (§3.3) for [Write] requests: the leader executes
      the request, then runs the accept phase for the tuple
      ⟨request, resulting state⟩; pipeline depth is one (instance [i] is
      proposed only after [i−1] commits), so the chosen sequence has no
      gaps. Requests that queue while an instance is in flight are
      folded into the next instance as a batch (bounded by
      [Config.max_batch]) — the decided value is ⟨batch, state after the
      batch⟩, preserving the no-gap rule while letting throughput scale
      with concurrent clients. Followers adopt the shipped state when
      the instance commits.
    - {b X-Paxos} (§3.4) for [Read] requests: every replica that receives
      the read sends a confirm to the holder of the highest ballot it has
      accepted; the leader executes the read against its latest committed
      state in parallel and replies once a majority (counting itself) has
      confirmed. With [Config.lease_ms > 0] a lease fast path sits on
      top: followers grant a time-bounded lease on heartbeat receipt and
      piggyback renewals on their own heartbeats and read-confirms; while
      the leader holds unexpired grants from a majority it answers reads
      after execution alone — zero protocol messages — falling back to
      the confirm round when the lease lapses. Granting followers refuse
      to promise to other candidates until their grant expires (and a
      recovered replica sits out one full lease), which is what makes the
      local read linearizable under the configured clock-skew bound.
    - {b T-Paxos} (§3.5) for transactions: operations inside a
      transaction execute immediately on a leader-local branch and are
      answered without coordination; the commit rebases the branch onto
      the current committed state (deterministic replay via witnesses),
      checks first-committer-wins conflicts on service footprints, and
      runs one accept phase for the whole batch. A leader switch aborts
      in-flight transactions (§3.6).
    - [Original] requests are the unreplicated baseline: executed and
      answered by the leader with no coordination.

    Leader election is Ω-style: heartbeats, a suspicion timeout, and a
    stability hold-down before a takeover. A new leader runs a
    multi-instance prepare: followers return their accepted-but-
    uncommitted entries and (if ahead) a snapshot; the leader installs
    the highest snapshot, re-proposes surviving entries under its ballot,
    and only then serves new requests.

    The engine is a pure step machine: all I/O happens through the
    returned {!Types.step} records (what to persist, then the actions),
    and all nondeterminism comes from the seeded RNG and the [~now]
    argument. *)

module Make (S : Service_intf.S) : sig
  type t

  val create :
    cfg:Config.t ->
    id:int ->
    ?seed:int ->
    ?obs:Grid_obs.Span.Recorder.t ->
    ?actor:string ->
    ?watchdog:Grid_obs.Watchdog.t ->
    unit ->
    t
  (** [seed] initializes the replica-local RNG handed to the service
      (defaults to a function of [id]). [obs] receives request-lifecycle
      spans ({!Grid_obs.Span.phase}); defaults to the shared disabled
      recorder, in which case instrumentation costs one branch per site.
      [actor] overrides the span label (default ["r<id>"]; sharded
      runtimes pass ["s<g>/r<id>"]). [watchdog] is the shared sink the
      replica's online invariant checks (duplicate commit, lost ack,
      stale read, lease mutual exclusion) report to; defaults to the
      disabled sink, one branch per check. *)

  val bootstrap : t -> Types.step
  (** Initial timers (heartbeat and suspicion ticks); a fresh replica
      has no records to persist. Call once before feeding inputs. *)

  val handle : t -> now:float -> Types.input -> Types.step
  (** One step. Its [persist] holds the promise, entries, commit point
      and snapshots it must make durable, in the order it made them; the
      driver writes them (or ignores them when it keeps no store) before
      it runs any of the step's [out]. *)

  val restart : t -> now:float -> Types.step
  (** Simulate a crash-recovery that loses volatile state: leadership,
      candidacies, pending reads and transactions are dropped; the log,
      promise and committed state (the durable part) survive. Returns the
      bootstrap timers, with the records a preceding {!load} re-persisted
      as the step's [persist]. *)

  val load : t -> Storage.persisted -> unit
  (** Install a persisted image (from {!Storage.file} or
      {!Storage.memory}) into a freshly created replica. A snapshot in the
      image is persisted again; those records come out in the [persist]
      of the next {!restart} or {!handle}. *)

  (** {1 Introspection} *)

  val is_leader : t -> bool

  val role_name : t -> string
  (** ["leader"], ["candidate"] (a prepare in flight) or ["follower"]. *)

  val ballot : t -> Types.Ballot.t
  val promised : t -> Types.Ballot.t
  val commit_point : t -> int

  val log_entries : t -> int
  (** Log entries held in memory. Committed instances are dropped at each
      snapshot, so this stays near [cfg.snapshot_interval] plus the
      instances in flight however long the replica runs. *)

  val footprint_window : t -> int
  (** Committed footprints held for T-Paxos conflict checks. Only a
      leader with a transaction branch open keeps any (at most 2048);
      a follower, or a leader with no open branch, holds none. *)

  val state : t -> S.state
  (** Latest committed service state. *)

  val leader_view : t -> int option
  (** Whom this replica would confirm reads to (holder of its promise). *)

  val holds_lease : t -> now:float -> bool
  (** Leader only: unexpired lease grants from a majority (counting
      itself) at [now] on its own clock — reads dispatched now take the
      local fast path. Always [false] when [Config.lease_ms = 0]. *)

  val lease_granted_to : t -> now:float -> int option
  (** Follower view: the replica this one's unexpired grant names (whom
      it would refuse other candidates for), if any. A post-crash
      blackout reports [Some (-1)]: every candidate is refused. *)

  val committed_updates : t -> (int * Types.request list * string) list
  (** Per committed instance: the requests and the encoded service state
      after applying it (requires [cfg.record_history]). For the
      agreement checker. *)

  val stats_shed : t -> int * int
  (** Requests shed with [Overloaded] while leading: [(reads, writes)].
      Both [0] unless [Config.max_inflight]/[max_queue] bound admission. *)

  val queue_depth : t -> int
  (** Leader only: writes and transaction commits waiting in the pending
      queue ([0] on followers). The admission window compares this
      against [Config.max_queue]. *)

  val prepared_txns : t -> int list
  (** Cross-shard transaction ids whose 2PC prepare committed in this
      group's log but whose commit/abort decision has not, ascending.
      Replica-level (followers track it too): a failover leader honours
      the votes of its predecessor. *)

  val txn_outcome : t -> int -> bool option
  (** Decision tombstone for a cross-shard transaction id: [Some true] if
      the commit decision committed here, [Some false] for an abort,
      [None] if undecided (or pruned long after deciding). *)

  val reads_inflight : t -> int
  (** Leader only: reads held awaiting confirmation or execution ([0] on
      followers). Compared against [Config.max_inflight]. *)

  (** {2 Elastic resharding (DESIGN.md §17)} *)

  val reshard_epoch : t -> int
  (** Highest committed partition-map epoch ([0] before any reshard). *)

  val reshard_map : t -> string
  (** Encoded partition map at {!reshard_epoch}; [""] before any reshard
      commit. This is the map [Wrong_epoch] redirects carry. *)

  val reshard_phase : t -> string
  (** Migration phase as derived from committed instances: ["idle"],
      ["frozen"] (a committed FREEZE awaits its decision) or
      ["installing"] (a committed INSTALL awaits its decision). *)

  val moved_ranges : t -> int
  (** Key ranges this group handed away — requests touching them are
      answered with [Wrong_epoch]. *)

  val imported_items : t -> int
  (** Total service items absorbed through committed INSTALLs (the
      [export_range] counts), for admin/metrics. *)
end
