(** Online invariant watchdogs: the stress-tier oracles (duplicate
    commit, lost acknowledged write, stale read, lease mutual exclusion)
    as cheap runtime checkers executed inside the replica on every
    commit/reply.

    One {!t} (the sink) per process or simulated runtime: it counts
    violations — optionally into a {!Metrics.t} registry as
    [grid_watchdog_violations_total] plus one counter per check — and
    holds the cross-replica lease view. Each replica incarnation creates
    its own {!monitor} (the bounded per-replica commit table); recovery
    makes a fresh monitor and re-seeds it from storage via
    {!seed_commit}, so replayed commits are never misflagged.

    Every check is a single branch when the sink is {!disabled}. The
    module is independent of [grid_paxos]: it sees ints, floats and
    strings only. *)

type t

exception Violation of string
(** Raised by a failing check when the sink was created with
    [fail_stop:true]. *)

val create :
  ?fail_stop:bool ->
  ?metrics:Metrics.t ->
  ?on_violation:(check:string -> detail:string -> unit) ->
  unit ->
  t
(** [fail_stop] (default [false]) raises {!Violation} on the violating
    call instead of only counting. [metrics] registers the
    [grid_watchdog_*_total] counters there. [on_violation] runs on every
    violation (after counting, before any raise) — e.g. to drop a note
    into a flight recorder. *)

val disabled : t
(** Shared no-op sink: every check is one branch, nothing is counted. *)

val violations : t -> int
val dup_commits : t -> int
val lost_acks : t -> int
val stale_reads : t -> int
val lease_conflicts : t -> int

val reset : t -> unit
(** Zero the counters and forget the lease view. Metrics-registered
    counters are not rewound (Prometheus counters are monotonic). *)

type monitor

val monitor : ?capacity:int -> t -> actor:string -> monitor
(** A per-replica commit table bounded to [capacity] (default 65536)
    remembered requests, oldest evicted first. Instances are Paxos log
    positions (non-negative).

    Layout: each client's keys that commit in ascending seq order live in
    a per-client window, a circular [int array] of ascending
    (seq, instance) pairs searched by bisection, re-cut with an eighth to
    spare as it fills or empties; one insertion-order ring of client ids
    (doubling up to [capacity]) picks the window whose oldest key goes
    next. A key at or below its client's highest seq — a 2PC decision
    commits a branch's op requests after the same client's later
    prepare — goes to a boxed side table with its own FIFO, marked in the
    ring. About 3.2 heap words per key for a few clients whatever the
    gaps between their committed seqs, about 10.5 for one key per client,
    and no allocation on an append that fits. *)

val seed_commit : monitor -> client:int -> seq:int -> instance:int -> unit
(** Record a commit without checking: log replay at recovery, where the
    commit was validated by a previous incarnation. *)

val record_commit : monitor -> client:int -> seq:int -> instance:int -> unit
(** Flags [dup_commit] if this request was already seen committing at a
    {e different} instance (re-delivery of the same instance is fine). *)

val write_acked : monitor -> client:int -> seq:int -> unit
(** Flags [lost_ack] if an Ok write reply is sent for a request this
    replica never saw commit. *)

val read_replied : monitor -> client:int -> seq:int -> watermark:int -> exec_point:int -> unit
(** Flags [stale_read] if a read is answered from a state behind the
    commit point it was admitted at ([exec_point < watermark]). *)

val lease_claimed : monitor -> now:float -> until:float -> slack_ms:float -> unit
(** Flags [lease_conflict] if this replica claims the read lease (serves
    a lease-local read valid [until] its local clock reaches that time)
    while another replica's claim is still live beyond the clock-skew
    allowance [slack_ms]. *)
