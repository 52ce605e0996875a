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

val create :
  ?metrics:Metrics.t ->
  ?on_violation:(check:string -> detail:string -> unit) ->
  unit ->
  t
(** [metrics] registers the [grid_watchdog_*_total] counters there.
    [on_violation] runs on every violation, after counting — e.g. to
    drop a note into a flight recorder. *)

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
    its segments, circular [int array]s searched by bisection: the
    newest, re-cut with an eighth to spare as it grows, and once that
    holds 252 keys a FIFO of older full ones, each freed when eviction
    empties it. A key there is one int: its seq and its instance packed
    as offsets from its segment's bases, which every re-cut moves to its
    oldest seq and lowest instance, so no seq or instance is too large
    to pack. One insertion-order ring of client ids, a FIFO of 256-slot
    chunks, picks the client whose oldest key goes next. A key at or
    below its client's highest seq — a 2PC decision commits a branch's
    op requests after the same client's later prepare — goes to a boxed
    side table with its own FIFO, marked in the ring, as does a key whose
    offsets do not fit even after a re-cut (a seq 2{^31} past the oldest
    in its segment). No block is over 256 words, so none is allocated
    straight in the major heap, and none is ever copied whole. About 2.07
    heap words per key for a few clients whatever the gaps between their
    committed seqs, about 11.5 for one key per client, and no allocation
    on an append that fits; freed segments and chunks are reused. *)

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

val enabled : monitor -> bool
(** Whether this monitor's sink checks anything: a caller whose argument
    costs more than the check's one branch computes it only then. *)

val lease_claimed : monitor -> now:float -> until:float -> slack_ms:float -> unit
(** Flags [lease_conflict] if this replica claims the read lease (serves
    a lease-local read valid [until] its local clock reaches that time)
    while another replica's claim is still live beyond the clock-skew
    allowance [slack_ms]. *)
