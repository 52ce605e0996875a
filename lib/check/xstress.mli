(** Cross-shard nemesis tier: seeded schedules over the sharded KV
    runtime driving 2PC transactions (DESIGN.md §16) against replica
    crashes, message duplication/reordering, contending single-shard
    traffic, and abandoned coordinators later resolved by presumed-abort
    recovery on a fresh client. Each schedule ends with per-group
    {!Agreement.check} plus the cross-shard atomicity/serializability
    oracle {!Xshard.check} over the drained histories. *)

type outcome = {
  o_seed : int;
  o_committed : int;  (** cross txns the live coordinator committed *)
  o_aborted : int;
  o_conflicted : int;
  o_abandoned : int;  (** coordinators parked mid-protocol *)
  o_recovered : int;  (** abandoned txns resolved by recovery *)
  o_singles : int;  (** single-shard requests completed alongside *)
  o_crashes : int;
  o_violations : string list;  (** empty iff the schedule passed *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val run_one :
  ?txns:int ->
  ?singles_per_client:int ->
  ?abandon_prob:float ->
  ?crash_prob:float ->
  ?trace:(Grid_obs.Span.event list -> unit) ->
  seed:int ->
  unit ->
  outcome
(** One seeded schedule: 3 groups of 3 replicas, [txns] sequential
    cross-shard transactions over 2–3 groups each (default 12), two
    closed-loop single-shard clients ([singles_per_client] requests
    each, default 15) racing the same small key pools, duplication and
    reordering on every link, and at most one crashed replica at a time.
    With probability [abandon_prob] (default 0.25) a transaction's
    coordinator parks after its branch ops and a random subset of
    prepares; a delayed {!Grid_shard.Multi.Make.recover_cross_txn} on a
    fresh client resolves it.

    With [trace], the schedule records every group's lifecycle spans
    (virtual-clock timestamps, deterministic per seed) and hands them to
    [trace] once it ends. Recording does not change the schedule. *)

type summary = {
  s_schedules : int;
  s_committed : int;
  s_aborted : int;
  s_conflicted : int;
  s_abandoned : int;
  s_recovered : int;
  s_crashes : int;
  s_failures : outcome list;  (** schedules with nonempty violations *)
}

val pp_summary : Format.formatter -> summary -> unit

val run :
  ?schedules:int ->
  ?base_seed:int ->
  ?txns:int ->
  ?singles_per_client:int ->
  ?abandon_prob:float ->
  ?crash_prob:float ->
  ?progress:(summary -> unit) ->
  unit ->
  summary

(** {1 Elastic-resharding tier (DESIGN.md §17)}

    Seeded schedules that split and merge a live key range back and
    forth between groups while closed-loop clients append uniquely
    tagged tokens across the moving keyspace, leaders of the migrating
    groups crash mid-protocol, and some coordinators park after FREEZE
    for presumed-abort recovery. A coordinator also drives cross-shard
    transactions whose footprints straddle the moving range, so 2PC
    prepares race FREEZE markers. The oracles: every acked append
    appears exactly once in the final owner's committed value — no lost
    and no double-executed acked write across any number of epoch
    changes — every cross-shard transaction is all-or-nothing at the
    final owners of its keys, and {!Xshard.check} holds over the
    drained histories with reshard markers interleaved. *)

type reshard_outcome = {
  r_seed : int;
  r_splits : int;  (** committed splits *)
  r_merges : int;  (** committed merges *)
  r_aborted : int;  (** transitions that ended [R_aborted] *)
  r_parked : int;  (** coordinators abandoned after FREEZE *)
  r_redirects : int;  (** transparent [Wrong_epoch] resubmissions *)
  r_acked : int;  (** acked appends the oracle verified *)
  r_xcommitted : int;  (** cross-shard txns committed across epochs *)
  r_xaborted : int;  (** cross-shard txns aborted or conflicted *)
  r_crashes : int;
  r_violations : string list;  (** empty iff the schedule passed *)
}

val pp_reshard_outcome : Format.formatter -> reshard_outcome -> unit

val run_reshard_one :
  ?steps:int ->
  ?appends_per_client:int ->
  ?park_prob:float ->
  ?crash_prob:float ->
  ?trace:(Grid_obs.Span.event list -> unit) ->
  seed:int ->
  unit ->
  reshard_outcome
(** One seeded schedule: 3 range-partitioned groups of 3 replicas,
    [steps] (default 6) strictly sequential split/merge transitions of
    one range, 3 closed-loop clients appending [appends_per_client]
    (default 30) tagged tokens each, duplication and reordering on every
    link, leader crashes in the migrating groups with probability
    [crash_prob] per transition, and FREEZE-then-vanish coordinators
    with probability [park_prob] resolved by a delayed
    {!Grid_shard.Multi.Make.recover_reshard}. [trace] is as for
    {!run_one}. *)

type reshard_summary = {
  rs_schedules : int;
  rs_splits : int;
  rs_merges : int;
  rs_aborted : int;
  rs_parked : int;
  rs_redirects : int;
  rs_acked : int;
  rs_xcommitted : int;
  rs_xaborted : int;
  rs_crashes : int;
  rs_failures : reshard_outcome list;  (** schedules with violations *)
}

val pp_reshard_summary : Format.formatter -> reshard_summary -> unit

val run_reshard :
  ?schedules:int ->
  ?base_seed:int ->
  ?steps:int ->
  ?appends_per_client:int ->
  ?park_prob:float ->
  ?crash_prob:float ->
  ?progress:(reshard_summary -> unit) ->
  unit ->
  reshard_summary
