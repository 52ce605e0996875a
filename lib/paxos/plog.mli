(** The replica's log of accepted proposals (§3.3).

    Instances are numbered from 1. Each entry records the highest-ballot
    proposal accepted for its instance and whether it is known chosen.
    The {e commit point} is the largest [i] such that instances [1..i]
    are all committed. Each instance decides ⟨req, state⟩, so once a
    snapshot holds the state and the dedup table a replica never needs a
    committed instance below it again: {!prune_below} and
    {!install_commit_point} {e truncate} that prefix, and the log holds
    only the instances above the last snapshot. A missing instance at or
    below the commit point is therefore a truncated, committed one. *)

type entry = {
  ballot : Types.Ballot.t;
  proposal : Types.proposal;
  committed : bool;
}

type t

val create : unit -> t
val commit_point : t -> int
val max_accepted : t -> int
(** Highest instance with an accepted entry; [0] if none. *)

val get : t -> int -> entry option
(** [None] for an instance never accepted or already truncated. *)

val accept : t -> instance:int -> ballot:Types.Ballot.t -> Types.proposal -> bool
(** Record an accepted proposal. Overwrites an existing uncommitted entry
    only when [ballot] is at least as high; never overwrites a committed
    entry and never re-stores a truncated one (a missing instance at or
    below the commit point). Returns whether the entry was stored. *)

val commit : t -> instance:int -> bool
(** Mark an instance committed and advance the commit point over any
    contiguous committed prefix. Returns [true] for a truncated instance
    (it is already committed) and [false] if an instance above the commit
    point has no accepted entry (caller should catch up). *)

val install_commit_point : t -> int -> unit
(** Jump the commit point forward after installing a snapshot; entries at
    or below it are dropped. *)

val accepted_above : t -> int -> Types.recovery_entry list
(** Accepted (committed or not) entries with instance > the argument, in
    increasing instance order — the payload of a [Prepare_ack]. *)

val prune_below : t -> int -> unit
(** Drop the entries at or below the given instance, once a snapshot
    covers them. Raises [Invalid_argument] if the instance is above the
    commit point: only committed entries may be dropped. *)

val entry_count : t -> int
(** Entries held in memory: O(snapshot window), not O(run length). *)
