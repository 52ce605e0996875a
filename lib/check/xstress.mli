(** Sharded nemesis tiers: seeded schedules over the sharded KV runtime
    (3 groups of 3 replicas) against replica crashes, with at most one
    replica down at a time, and duplication and reordering on every link.
    Both tiers run one schedule skeleton and differ only in their
    drivers, crash victims and extra oracles:

    - {!Xshard} (DESIGN.md §16): 12 sequential cross-shard 2PC
      transactions over 2–3 groups each, a quarter of them abandoned
      after their branch ops and a random subset of prepares and later
      resolved by {!Grid_shard.Multi.Make.recover_cross_txn} on a fresh
      client, racing two closed-loop single-shard clients on the same
      small key pools. Any replica may crash as a transaction starts.
    - {!Reshard} (DESIGN.md §17): 6 strictly sequential split/merge
      transitions of one live key range, some coordinators parked after
      FREEZE and resolved by {!Grid_shard.Multi.Make.recover_reshard};
      3 closed-loop clients append uniquely tagged tokens across the
      moving keyspace; 8 cross-shard transactions straddle the moving
      range, so 2PC prepares race FREEZE markers. A leader of a migrating
      group may crash as a transition starts. Its own oracles: every
      acked append appears exactly once at its key's final owner, and
      every cross-shard transaction is all-or-nothing there.

    Every schedule of either tier ends with the same drain oracle: each
    group passes {!Agreement.check}, has a leader, and that leader holds
    no prepared transaction and no unfinished reshard; {!Xshard.check}
    holds over the drained histories; the watchdog stayed silent. *)

type tier = Xshard | Reshard

(** What a schedule exercised. A tier fills only its own fields; the
    rest stay 0. *)
type counts = {
  committed : int;  (** cross-shard txns committed *)
  aborted : int;  (** cross-shard txns aborted *)
  conflicted : int;  (** cross-shard txns that lost a conflict vote *)
  parked : int;  (** coordinators abandoned mid-protocol (2PC or FREEZE) *)
  recovered : int;  (** abandoned 2PC txns resolved by recovery *)
  singles : int;  (** single-shard requests completed alongside *)
  splits : int;  (** committed splits *)
  merges : int;  (** committed merges *)
  moves_aborted : int;  (** reshard transitions that ended [R_aborted] *)
  redirects : int;  (** transparent [Wrong_epoch] resubmissions *)
  acked : int;  (** acked appends the exactly-once oracle verified *)
  crashes : int;
}

type outcome = {
  tier : tier;
  seed : int;
  counts : counts;
  violations : string list;  (** empty iff the schedule passed *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val run_one : ?trace:(Grid_obs.Span.event list -> unit) -> seed:int -> tier -> outcome
(** One seeded schedule of [tier]. With [trace], the schedule records
    every group's lifecycle spans (virtual-clock timestamps,
    deterministic per seed) and hands them to [trace] once it ends.
    Recording does not change the schedule. *)

type summary = {
  tier : tier;
  schedules : int;
  totals : counts;  (** summed over the schedules *)
  failures : outcome list;  (** schedules with violations, in seed order *)
}

val empty_summary : tier -> summary

val add_outcome : summary -> outcome -> summary
(** Fold one schedule into a batch summary; a failing one goes last. *)

val pp_summary : Format.formatter -> summary -> unit
