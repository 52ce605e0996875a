(** The nemesis stress harness: seeded model-checker schedules with the
    full cross-layer fault mix — clean and torn-persist crashes (a torn
    one keeps a prefix of its step's records), message duplication and
    cross-channel reordering — asserting on every schedule that

    - {b agreement} holds (same ⟨batch, state⟩ per instance, in-order
      application, exactly-once commits);
    - {b durability} holds (a replica revived from its persisted image
      carries exactly the committed prefix the group observed);
    - the {b client-visible history is linearizable} against the service
      model (checked when every request was answered);
    - {b no stale reads}: every read's first reply reflects the writes
      committed before it was issued ({!Mcheck.outcome.stale_reads}) —
      the invariant the leader-lease fast path must preserve under clock
      drift and leader failovers.

    Failing schedules are replayed from their recorded fault
    {!Mcheck.plan} through the same [run_one] path ([?plan]) and greedily
    shrunk to a minimal plan that still fails. The replay of a recorded
    plan is exact; the replay of a shrunk one is best-effort. *)

type service = Counter_service | Kv_service

val service_name : service -> string

val default_nemesis : Mcheck.nemesis
(** The standard stress mix: rare crashes (30% torn), 3% duplication and
    reordering per delivery. No clock drift. *)

val lease_nemesis : Mcheck.nemesis
(** {!default_nemesis} plus clock drift (0.5% per step, up to ±2 ms) for
    exercising leader leases; pair it with a [cfg_tweak] that sets
    {!Grid_paxos.Config.t.lease_ms}. *)

type failure = {
  seed : int;
  service : service;
  reasons : string list;  (** human-readable violation descriptions *)
  plan : Mcheck.plan;  (** the fault plan of the failing run *)
  shrunk : Mcheck.plan option;  (** minimal still-failing plan, if shrunk *)
}

type summary = {
  schedules : int;
  failures : failure list;
  unreplied : int;  (** schedules where the drain left requests unanswered *)
  crashes : int;
  torn_persists : int;
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections across the batch *)
  shed : int;  (** [Overloaded] pushbacks across the batch *)
  admitted_p99_max : float;
      (** worst per-schedule p99 of admitted-request latency (virtual ms);
          [0.] when no schedule completed a request *)
  delivered : int;
  replies : int;
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas across the batch; a non-zero count also surfaces as
          a failure reason on the offending schedule *)
}

val replay_differences : Mcheck.outcome -> Mcheck.outcome -> string list
(** [replay_differences run replay] names the outcome fields in which a
    replay of [run]'s plan differs from [run]: ["plan"], ["replies"],
    ["delivered"], ["committed"], ["timer_fires"], ["torn_persists"].
    Empty iff the replay was exact. *)

val run_one :
  service:service ->
  ?obs:Grid_obs.Span.Recorder.t ->
  ?steps:int ->
  ?nemesis:Mcheck.nemesis ->
  ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
  ?shrink:bool ->
  ?plan:Mcheck.plan ->
  seed:int ->
  unit ->
  Mcheck.outcome * failure option
(** One seeded schedule over a generated workload (3 closed-loop clients,
    mixed reads and writes, derived from the seed). [obs] receives the
    replicas' lifecycle spans (deterministic per seed). [cfg_tweak]
    edits the group config, e.g. to enable leader leases or to plant the
    double-commit bug ([disable_dedup]) for shrinker demonstrations.
    [plan] replays
    that fault plan instead of rolling the fault dice (see
    {!Mcheck.Make.explore}); pass the recording's other arguments too,
    and [~shrink:false] to check a replay without shrinking it again.
    The run passed iff no failure is returned. *)

val run_overload_one :
  ?obs:Grid_obs.Span.Recorder.t ->
  ?steps:int ->
  ?shrink:bool ->
  ?plan:Mcheck.plan ->
  seed:int ->
  unit ->
  Mcheck.outcome * failure option
(** One schedule of the overload tier ([steps] default 1 400): the
    counter service under a write-heavy workload with a deliberately tiny
    admission window ([max_inflight] = [max_queue] = 2), driven by
    {!default_nemesis} with the crash rate doubled: shed requests and
    backoff retransmissions must survive leader churn. On top of the
    usual oracles it checks that no [Ok]-acknowledged write was lost
    ({!Mcheck.outcome.lost_admitted}) and that the p99 latency of
    admitted requests stays under 120 virtual seconds. The other
    arguments are {!run_one}'s. *)

val empty_summary : summary

val add_outcome : summary -> Mcheck.outcome -> failure option -> summary
(** Fold one schedule into a batch summary; a failure goes last. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_summary : Format.formatter -> summary -> unit
