(** What a replica derives from committed instances, besides its log:
    the client dedup table, the 2PC participant tables and the reshard
    participant state, plus the one rule for adopting a committed state
    update.

    Every replica derives these from the same committed sequence, so all
    of them end up equal (§3.3). {!Replica.Make} feeds every committed
    instance through {!track}, whether it commits live, arrives by
    catch-up or is replayed at recovery. It carries the tables across a
    log prune with {!snapshot} and {!restore}. The leader's batch gate
    reads the tables directly. *)

(** A cross-shard transaction branch locked in by a committed 2PC
    prepare instance (DESIGN.md §16). Unlike the leader-local branch it
    is replica-level state: a failover leader must honour votes its
    predecessor cast. The footprint stays locked until the commit/abort
    decision instance releases it. *)
type prepared = {
  p_ops : (Types.request * string option) list;  (** in order, with witnesses *)
  p_replies : Types.reply list;  (** in order *)
  p_footprint : Footprint.t;
}

val encode_prepared : prepared -> string
(** The payload a YES-voting [Txn_prepare] commits with, and the branch
    blob inside {!Snapshot.t}. *)

type dedup = (int, Types.reply) Hashtbl.t
(** Client id → the reply of its highest committed sequence number. *)

type t = {
  dedup : dedup;
  prepared : (int, prepared) Hashtbl.t;
      (** cross-txn tid → branch whose prepare committed, decision pending *)
  txn_outcomes : (int, bool) Hashtbl.t;
      (** cross-txn tid → committed? Decision tombstones: they make
          commit/abort idempotent under duplicate delivery and coordinator
          failover. *)
  mutable reshard_epoch : int;  (** highest committed map epoch *)
  mutable reshard_map : string;  (** encoded map at that epoch; [""] = seed *)
  mutable frozen : (int * string * string option * int) option;
      (** (epoch, lo, hi, target): committed FREEZE awaiting its decision *)
  mutable installed : (int * string * string option * int) option;
      (** (epoch, lo, hi, count): committed INSTALL awaiting its decision *)
  mutable moved : (string * string option) list;
      (** ranges handed away: requests touching them get [Wrong_epoch] *)
  reshard_aborted : (int, unit) Hashtbl.t;  (** abort tombstones, by epoch *)
  mutable imported_items : int;  (** items absorbed via INSTALL commits *)
}

val create : unit -> t

val dedup_update : dedup -> Types.reply -> unit
(** Keep [reply] unless the table already holds a reply to the same or a
    later request of its client. *)

val dedup_lookup : dedup -> Types.request -> [ `Fresh | `Resend of Types.reply | `Stale ]
(** [`Resend r]: the request committed and [r] answers it again.
    [`Stale]: the client has since committed a later request. *)

val track : t -> Types.proposal -> unit
(** Derive the tables' share of one committed instance: its replies
    enter the dedup table, a committed [Txn_prepare] locks its branch, a
    decision releases it and leaves a tombstone, and the [Reshard_*]
    markers step the migration state. *)

val snapshot : t -> commit_point:int -> state:string -> Snapshot.t
(** A snapshot at [commit_point] of the encoded service [state] and the
    tables. *)

val restore : t -> Snapshot.t -> unit
(** Adopt a snapshot's tables. The dedup entries merge into the table;
    the 2PC tables are replaced; the reshard state is replaced unless the
    image predates resharding. *)

val adopt :
  (module Service_intf.S with type state = 's) -> 's -> Types.proposal -> 's
(** The service state after adopting a committed proposal's shipped
    update on top of the state before it. A [Witness] replays the
    proposal's single request.
    @raise Invalid_argument on a [Witness] for any other number of
    requests. The wire decoders reject such a proposal already. *)
